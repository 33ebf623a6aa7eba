package harness

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series accumulates float64 samples.
type Series struct {
	vals   []float64
	sorted bool
}

// Add appends one sample.
func (s *Series) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

// AddDuration appends a duration sample in seconds.
func (s *Series) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Count returns the number of samples.
func (s *Series) Count() int { return len(s.vals) }

// Mean returns the arithmetic mean, or NaN for an empty series.
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.vals {
		sum += v
	}
	return sum / float64(len(s.vals))
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, or NaN for an empty series.
func (s *Series) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	rank := int(math.Ceil(p / 100 * float64(len(s.vals))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.vals) {
		rank = len(s.vals)
	}
	return s.vals[rank-1]
}

// Min returns the smallest sample, or NaN for an empty series.
func (s *Series) Min() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.vals[0]
}

// Max returns the largest sample, or NaN for an empty series.
func (s *Series) Max() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.vals[len(s.vals)-1]
}

func (s *Series) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Summary is an immutable snapshot of a series. It carries the latency
// distribution (p50/p95/p99), not just the mean — tail behavior is what the
// paper's extra-wait and commit-strength trade-offs move, and a mean alone
// hides it.
type Summary struct {
	Count               int
	Mean, P50, P95, P99 float64
	Min, Max            float64
}

// Summarize snapshots the series.
func (s *Series) Summarize() Summary {
	if len(s.vals) == 0 {
		return Summary{}
	}
	return Summary{
		Count: s.Count(),
		Mean:  s.Mean(),
		P50:   s.Percentile(50),
		P95:   s.Percentile(95),
		P99:   s.Percentile(99),
		Min:   s.Min(),
		Max:   s.Max(),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f min=%.3f max=%.3f",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Min, s.Max)
}
