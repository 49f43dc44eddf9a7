package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Sum([]float64{1.5, 2.5}); got != 4 {
		t.Errorf("Sum = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be infinities")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean = %v", got)
	}
	if GeoMean([]float64{1, 0}) != 0 {
		t.Error("GeoMean with zero should be 0")
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) should be 0")
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512",
		1 << 10: "1K",
		4 << 10: "4K",
		1 << 20: "1M",
		3 << 20: "3M",
		1500:    "1500",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestPercentDelta(t *testing.T) {
	if got := PercentDelta(100, 110); math.Abs(got-10) > 1e-12 {
		t.Errorf("PercentDelta = %v", got)
	}
	if PercentDelta(0, 5) != 0 {
		t.Error("zero base should return 0")
	}
}

// Property: Min <= Mean <= Max for non-empty slices.
func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		m := Mean(xs)
		return Min(xs) <= m+1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"1024": 1024,
		"4K":   4096,
		"4k":   4096,
		"1M":   1 << 20,
		" 64K": 64 << 10,
		"0":    0,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// 17592186044417M is 2^64 + 1M: it used to wrap around to 1M.
	for _, bad := range []string{"", "abc", "-4K", "4G", "17592186044417M", "9223372036854775807K"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
	for _, b := range []int64{0, 512, 1 << 10, 64 << 10, 1 << 20, 3<<20 + 1, math.MaxInt64} {
		if got, err := ParseBytes(FormatBytes(b)); err != nil || got != b {
			t.Errorf("ParseBytes(FormatBytes(%d)) = %d, %v", b, got, err)
		}
	}
}
