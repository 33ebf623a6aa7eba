package harness

import (
	"math"
	"testing"
	"time"
)

func TestSeriesStats(t *testing.T) {
	var s Series
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.Count() != 5 {
		t.Fatalf("count = %d", s.Count())
	}
	if got := s.Mean(); got != 3 {
		t.Errorf("mean = %v", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := s.Max(); got != 5 {
		t.Errorf("max = %v", got)
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Percentile(1); got != 1 {
		t.Errorf("p1 = %v", got)
	}
}

func TestSeriesAddAfterSort(t *testing.T) {
	// Percentile sorts internally; later Adds must still be seen.
	var s Series
	s.Add(1)
	_ = s.Percentile(50)
	s.Add(10)
	if got := s.Max(); got != 10 {
		t.Fatalf("max after post-sort add = %v", got)
	}
}

func TestEmptySeries(t *testing.T) {
	var s Series
	for name, v := range map[string]float64{
		"mean": s.Mean(), "p50": s.Percentile(50), "min": s.Min(),
		"max": s.Max(),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s of empty series = %v, want NaN", name, v)
		}
	}
	sum := s.Summarize()
	if sum.Count != 0 {
		t.Error("empty summary count")
	}
	if sum.String() != "n=0" {
		t.Errorf("empty summary string = %q", sum.String())
	}
}

func TestAddDuration(t *testing.T) {
	var s Series
	s.AddDuration(1500 * time.Millisecond)
	if got := s.Mean(); got != 1.5 {
		t.Fatalf("duration sample = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	sum := s.Summarize()
	if sum.Count != 100 || sum.Mean != 50.5 || sum.P50 != 50 || sum.P95 != 95 || sum.P99 != 99 || sum.Min != 1 || sum.Max != 100 {
		t.Fatalf("summary: %+v", sum)
	}
	if sum.String() == "" {
		t.Error("summary string empty")
	}
}
