package types

import (
	"reflect"
	"sync/atomic"
)

// doorRecord is replica.Certs's note on a certificate that it passed a door,
// so that every holder of the same *QC — each replica a simulator hands it
// to, each Prevalidate worker — reads it once. It is written once, by CAS,
// after every check passed, and read only once published. It names the
// address it was written for, so a by-value copy (go vet refuses one, for the
// atomic) or a rebuilt QC never inherits it. It is sound only because a
// message is immutable once handed over (engine.Engine).
type doorRecord struct {
	state  atomic.Uint32 // doorEmpty, doorWriting, doorDone
	quorum int32
	owner  *QC
	by     any // the verifier the signatures passed under; nil: structure only
}

const doorEmpty, doorWriting, doorDone uint32 = 0, 1, 2

// PassedDoor reports whether this certificate, at this address, passed the
// structure check for quorum and, unless by is nil, the signature check under
// by. Only replica.Certs calls it.
func (q *QC) PassedDoor(quorum int, by any) bool {
	r := &q.door
	// r.by's dynamic type is comparable (MarkPassedDoor), so == cannot panic.
	return r.state.Load() == doorDone && r.owner == q && int(r.quorum) == quorum && (by == nil || r.by == by)
}

// MarkPassedDoor records that the certificate passed the structure check for
// quorum and, unless by is nil, the signature check under by. Only the first
// record is kept, and none under a verifier that cannot be compared. Only
// replica.Certs calls it.
func (q *QC) MarkPassedDoor(quorum int, by any) {
	r := &q.door
	if by != nil && !reflect.TypeOf(by).Comparable() || !r.state.CompareAndSwap(doorEmpty, doorWriting) {
		return
	}
	r.quorum, r.owner, r.by = int32(quorum), q, by
	r.state.Store(doorDone)
}
