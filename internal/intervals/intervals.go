// Package intervals implements closed integer intervals over round numbers
// and normalized interval sets. They encode the "set of intervals of round
// numbers that a strong-vote endorses" from Section 3.4 of the paper: a
// generalized strong-vote ⟨vote, B, r, I⟩ endorses any block whose round
// number lies in I.
//
// The single-marker scheme of Section 3.2 is the special case
// I = [marker+1, r]; see FromMarker.
//
// Rounds are plain uint64 here so the package stays a dependency leaf;
// callers convert from their typed round numbers.
package intervals

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrShortBuffer is returned by Decode when the input is truncated.
var ErrShortBuffer = errors.New("intervals: short buffer")

// Interval is a closed interval [Lo, Hi] of round numbers. An interval with
// Lo > Hi is empty.
type Interval struct {
	Lo, Hi uint64
}

// Empty reports whether the interval contains no rounds.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Contains reports whether r lies in the interval.
func (iv Interval) Contains(r uint64) bool { return iv.Lo <= r && r <= iv.Hi }

// String renders the interval as "[lo,hi]".
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi) }

// Set is a normalized set of disjoint, sorted, non-adjacent intervals.
// The zero value is the empty set.
type Set struct {
	ivs []Interval
}

// New builds a normalized set from arbitrary intervals: empties are dropped,
// the rest are sorted and overlapping or adjacent intervals are merged.
func New(ivs ...Interval) Set {
	var s Set
	for _, iv := range ivs {
		s = s.Add(iv)
	}
	return s
}

// FromMarker returns the interval set a single-marker strong-vote endorses:
// [marker+1, r], where r is the round of the voted block. With the default
// marker 0 this endorses every round in [1, r].
func FromMarker(marker, r uint64) Set {
	if marker >= r {
		return Set{}
	}
	return Set{ivs: []Interval{{Lo: marker + 1, Hi: r}}}
}

// Full returns the set [1, r].
func Full(r uint64) Set {
	if r == 0 {
		return Set{}
	}
	return Set{ivs: []Interval{{Lo: 1, Hi: r}}}
}

// Empty reports whether the set contains no rounds.
func (s Set) Empty() bool { return len(s.ivs) == 0 }

// Len returns the number of disjoint intervals in the set.
func (s Set) Len() int { return len(s.ivs) }

// Intervals returns a copy of the normalized intervals, sorted by Lo.
func (s Set) Intervals() []Interval {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}

// Contains reports whether round r is endorsed by the set.
func (s Set) Contains(r uint64) bool {
	// Binary search for the first interval with Hi >= r.
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= r })
	return i < len(s.ivs) && s.ivs[i].Contains(r)
}

// Add returns the set with iv merged in, preserving normalization.
func (s Set) Add(iv Interval) Set {
	if iv.Empty() {
		return s
	}
	out := make([]Interval, 0, len(s.ivs)+1)
	inserted := false
	for _, cur := range s.ivs {
		switch {
		case cur.Hi+1 < iv.Lo:
			// cur entirely before iv (not even adjacent).
			out = append(out, cur)
		case iv.Hi+1 < cur.Lo:
			// cur entirely after iv.
			if !inserted {
				out = append(out, iv)
				inserted = true
			}
			out = append(out, cur)
		default:
			// Overlapping or adjacent: absorb cur into iv.
			iv.Lo = min(iv.Lo, cur.Lo)
			iv.Hi = max(iv.Hi, cur.Hi)
		}
	}
	if !inserted {
		out = append(out, iv)
	}
	return Set{ivs: out}
}

// Union returns the union of the two sets.
func (s Set) Union(t Set) Set {
	out := s
	for _, iv := range t.ivs {
		out = out.Add(iv)
	}
	return out
}

// Subtract returns the set with every round in iv removed.
func (s Set) Subtract(iv Interval) Set {
	if iv.Empty() || len(s.ivs) == 0 {
		return s
	}
	out := make([]Interval, 0, len(s.ivs)+1)
	for _, cur := range s.ivs {
		if cur.Hi < iv.Lo || cur.Lo > iv.Hi {
			out = append(out, cur)
			continue
		}
		// Left remainder.
		if cur.Lo < iv.Lo {
			out = append(out, Interval{Lo: cur.Lo, Hi: iv.Lo - 1})
		}
		// Right remainder.
		if cur.Hi > iv.Hi {
			out = append(out, Interval{Lo: iv.Hi + 1, Hi: cur.Hi})
		}
	}
	return Set{ivs: out}
}

// SubtractSet returns s minus every interval of t.
func (s Set) SubtractSet(t Set) Set {
	out := s
	for _, iv := range t.ivs {
		out = out.Subtract(iv)
	}
	return out
}

// Intersect returns the intersection of the two sets.
func (s Set) Intersect(t Set) Set {
	out := make([]Interval, 0, len(s.ivs))
	i, j := 0, 0
	for i < len(s.ivs) && j < len(t.ivs) {
		a, b := s.ivs[i], t.ivs[j]
		lo, hi := max(a.Lo, b.Lo), min(a.Hi, b.Hi)
		if lo <= hi {
			out = append(out, Interval{Lo: lo, Hi: hi})
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return Set{ivs: out}
}

// Equal reports whether the two sets contain exactly the same rounds.
func (s Set) Equal(t Set) bool {
	if len(s.ivs) != len(t.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != t.ivs[i] {
			return false
		}
	}
	return true
}

// Count returns the total number of rounds in the set.
func (s Set) Count() uint64 {
	var n uint64
	for _, iv := range s.ivs {
		n += iv.Hi - iv.Lo + 1
	}
	return n
}

// String renders the set as "{[a,b],[c,d]}".
func (s Set) String() string {
	if len(s.ivs) == 0 {
		return "{}"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Encode appends a deterministic binary encoding of the set to b, for
// inclusion in signed strong-vote payloads.
func (s Set) Encode(b []byte) []byte {
	var tmp [8]byte
	binary.BigEndian.PutUint32(tmp[:4], uint32(len(s.ivs)))
	b = append(b, tmp[:4]...)
	for _, iv := range s.ivs {
		binary.BigEndian.PutUint64(tmp[:], iv.Lo)
		b = append(b, tmp[:]...)
		binary.BigEndian.PutUint64(tmp[:], iv.Hi)
		b = append(b, tmp[:]...)
	}
	return b
}

// GobEncode implements gob.GobEncoder so sets survive encoding/gob despite
// having unexported fields. Nothing puts gob on the wire any more; this stays
// only for the benchmark's gob probe (see types.QC.GobEncode).
func (s Set) GobEncode() ([]byte, error) {
	return s.Encode(nil), nil
}

// GobDecode implements gob.GobDecoder.
func (s *Set) GobDecode(b []byte) error {
	dec, rest, err := Decode(b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("intervals: %d trailing bytes", len(rest))
	}
	*s = dec
	return nil
}

// Decode parses a set encoded by Encode from the front of b, returning the
// set and the remaining bytes.
func Decode(b []byte) (Set, []byte, error) {
	if len(b) < 4 {
		return Set{}, nil, ErrShortBuffer
	}
	n := binary.BigEndian.Uint32(b[:4])
	b = b[4:]
	var s Set
	for i := uint32(0); i < n; i++ {
		if len(b) < 16 {
			return Set{}, nil, ErrShortBuffer
		}
		lo := binary.BigEndian.Uint64(b[:8])
		hi := binary.BigEndian.Uint64(b[8:16])
		b = b[16:]
		s = s.Add(Interval{Lo: lo, Hi: hi})
	}
	return s, b, nil
}
