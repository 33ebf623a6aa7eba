package core

// OnCheckpointStep makes fn see every step Journal.Checkpoint completes
// ("rotate", "append", "sync", then "remove" after each deleted segment)
// until the returned func restores the default.
func OnCheckpointStep(fn func(step string)) (restore func()) {
	prev := checkpointStep
	checkpointStep = fn
	return func() { checkpointStep = prev }
}
