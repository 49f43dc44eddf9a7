package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10) // 1..10
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

// TestTailKeepsTenSamplesBeyond checks the reporting rule: the tail is
// the highest ladder percentile with at least ten samples beyond it.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n             int
		wantPct, want float64
	}{
		{5, 100, 5},         // too few for any percentile: the maximum
		{19, 100, 19},       // p50 would leave 9.5 beyond
		{20, 50, 10},        // p50 leaves exactly 10 beyond
		{99, 50, 50},        // p90 would leave 9.9 beyond
		{100, 90, 90},       // p90 leaves 10 beyond
		{999, 90, 900},      // p99 would leave 9.99 beyond
		{1000, 99, 990},     // p99 leaves 10 beyond
		{10000, 99.9, 9990}, // p99.9 leaves 10 beyond
	} {
		v, p := tail(seq(c.n))
		if p != c.wantPct || v != c.want {
			t.Errorf("n=%d: tail p%g=%g, want p%g=%g", c.n, p, v, c.wantPct, c.want)
		}
		if p < 100 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, p)
			}
		}
	}
}

func TestWindowedPercentile(t *testing.T) {
	// 3000 samples of 1 with a slow stretch: in one window of 1000 every
	// tenth sample is 100. The plain p99 sees the stretch; the windowed
	// one reads the typical window.
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = 1
		if i >= 1000 && i < 2000 && i%10 == 0 {
			xs[i] = 100
		}
	}
	if got := percentile(xs, 99); got != 100 {
		t.Fatalf("plain p99 = %g, want 100", got)
	}
	if got := windowedPercentile(xs, 99); got != 1 {
		t.Errorf("windowed p99 = %g, want 1", got)
	}
	// Too few samples for two windows: the plain percentile.
	if got, want := windowedPercentile(seq(150), 90), percentile(seq(150), 90); got != want {
		t.Errorf("150 samples: windowed p90 = %g, want the plain %g", got, want)
	}
	if got := windowedPercentile(seq(12), 100); got != 12 {
		t.Errorf("p100 = %g, want the maximum 12", got)
	}
	// Two windows of 100 for p90.
	if got := windowedPercentile(seq(200), 90); got != percentile(seq(200)[100:], 90) && got != percentile(seq(200)[:100], 90) {
		t.Errorf("200 samples: windowed p90 = %g, not one of the two windows' p90", got)
	}
}
