package opt

import (
	"math"
	"math/rand"
	"testing"
)

// TestNewRandMatchesMathRand is the oracle for the lazily seeded source:
// every backend's sampling stream, and so every golden, depends on
// newRand(s) drawing exactly what rand.New(rand.NewSource(s)) draws.
func TestNewRandMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, rngZeroS, -rngZeroS, lehmerM, -lehmerM, lehmerM - 1, lehmerM + 1,
		2 * lehmerM, -2 * lehmerM, 1 << 31, -(1 << 31), 1 << 62, -(1 << 62),
		1<<62 + 12345, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		// The backends' per-seed xor constants.
		0x2545f4914f6cdd1d, 0x5deece66d, 0x3c6ef372fe94f82b, 0x1e3779b97f4a7c15,
		1 ^ 0x2545f4914f6cdd1d, 1 ^ 0x5deece66d, 1 ^ 0x3c6ef372fe94f82b, 1 ^ 0x1e3779b97f4a7c15,
	}
	gen := rand.New(rand.NewSource(20190622))
	for len(seeds) < 3000 {
		s := int64(gen.Uint64())
		switch len(seeds) % 3 {
		case 0:
			s %= 1 << 20 // small seeds, both signs
		case 1:
			s = -(s & math.MaxInt64) // negative seeds
		}
		seeds = append(seeds, s)
	}

	for _, s := range seeds {
		want, got := rand.New(rand.NewSource(s)), newRand(s)
		for i := 0; i < 10000; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 #%d = %#x, want %#x", s, i, g, w)
			}
		}
	}

	// Mixed methods from a fresh seed, then a re-Seed mid-stream.
	for _, s := range seeds[:64] {
		want, got := rand.New(rand.NewSource(s)), newRand(s)
		mixed := func(phase string) {
			for i := 0; i < 500; i++ {
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("seed %d %s: Float64 #%d = %v, want %v", s, phase, i, g, w)
				}
				if w, g := want.Intn(64), got.Intn(64); w != g {
					t.Fatalf("seed %d %s: Intn #%d = %d, want %d", s, phase, i, g, w)
				}
				if w, g := want.Int63n(1e15+7), got.Int63n(1e15+7); w != g {
					t.Fatalf("seed %d %s: Int63n #%d = %d, want %d", s, phase, i, g, w)
				}
				if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
					t.Fatalf("seed %d %s: NormFloat64 #%d = %v, want %v", s, phase, i, g, w)
				}
			}
		}
		mixed("fresh")
		want.Seed(s ^ 0x5deece66d)
		got.Seed(s ^ 0x5deece66d)
		mixed("reseeded")
	}
}
