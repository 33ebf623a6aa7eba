package main

import (
	"encoding/json"
	"os"
	"sync"
)

// spanSubmitEvery thins the per-transaction submit spans: at 5,000 tx/s a
// span per submit would be a hundred thousand records that all say the same
// thing.
const spanSubmitEvery = 16

// span is one interval at a layer boundary, recorded by the benchmark around
// its own calls into the stack. Times are ns since the run's epoch; Parent
// is the ID of the span that caused this one (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends; nothing is written while
// the clock is running.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID.
func (s *spanLog) add(name string, start, end int64, parent int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.spans) + 1
	s.spans = append(s.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

func (s *spanLog) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.Marshal(s.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
