package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean should be 0")
	}
	if !approx(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean wrong")
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
	if !approx(GeoMean([]float64{2, 8}), 4) {
		t.Fatalf("geomean = %v", GeoMean([]float64{2, 8}))
	}
	// Non-positive values are skipped, not fatal.
	if !approx(GeoMean([]float64{0, -1, 4}), 4) {
		t.Fatal("geomean should skip non-positive values")
	}
	if GeoMean([]float64{0}) != 0 {
		t.Fatal("all-non-positive geomean should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("min/max wrong")
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty min/max should be 0")
	}
}

func TestStddev(t *testing.T) {
	if Stddev([]float64{5}) != 0 {
		t.Fatal("single-element stddev should be 0")
	}
	if !approx(Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2) {
		t.Fatalf("stddev = %v", Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
}

// Properties: the geometric mean of positive values lies between min and
// max, and is bounded above by the arithmetic mean (AM–GM).
func TestGeoMeanProperties(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v%1000) + 1 // positive
		}
		g := GeoMean(xs)
		return g >= Min(xs)-1e-9 && g <= Max(xs)+1e-9 && g <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStripedBasics(t *testing.T) {
	s := NewStriped(4)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if got := s.Add(1, 10); got != 10 {
		t.Fatalf("Add(1,10) = %d, want 10", got)
	}
	if got := s.Add(1, 5); got != 15 {
		t.Fatalf("Add(1,5) = %d, want 15 (post-add value)", got)
	}
	s.Add(3, 7)
	if s.Load(1) != 15 || s.Load(3) != 7 || s.Load(0) != 0 {
		t.Fatalf("loads = %d,%d,%d", s.Load(0), s.Load(1), s.Load(3))
	}
	if s.Sum() != 22 {
		t.Fatalf("Sum = %d, want 22", s.Sum())
	}
}

func TestStripedIndexWrap(t *testing.T) {
	s := NewStriped(3)
	s.Add(5, 1)  // wraps to stripe 2
	s.Add(-1, 1) // negative hints wrap too, rather than panicking
	if s.Load(2) != 2 {
		t.Fatalf("stripe 2 = %d, want 2 (5 mod 3 and -1 mod 3)", s.Load(2))
	}
	if s.Sum() != 2 {
		t.Fatalf("Sum = %d, want 2", s.Sum())
	}
}

func TestStripedMinimumOneStripe(t *testing.T) {
	s := NewStriped(0)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want clamped minimum 1", s.Len())
	}
	s.Add(9, 4)
	if s.Load(0) != 4 {
		t.Fatalf("single stripe = %d, want 4", s.Load(0))
	}
}
