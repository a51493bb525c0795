package strategy

import (
	"math/rand"
	"testing"
)

// TestTrialSourceMatchesMathRand pins trialSource to math/rand's stream:
// for seeds at the normalization edges (zero, ±(2³¹−1), values beyond 32
// bits) and a run of consecutive seeds, the first 3×607 outputs cross the
// register wrap twice and must match rand.NewSource bit for bit, both
// after a fresh Seed and after reseeding a used source.
func TestTrialSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, int32max, -int32max, 1 << 31, 89482311, 1 << 40, -1 << 62}
	for s := int64(20030407 - 300); s < 20030407+300; s++ {
		seeds = append(seeds, s)
	}
	var src trialSource
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		src.Seed(seed)
		for n := 0; n < 3*rngLen; n++ {
			if w, g := want.Uint64(), src.Uint64(); g != w {
				t.Fatalf("seed %d: output %d = %#x, want %#x", seed, n, g, w)
			}
		}
	}
	// Through rand.Rand: Intn's rejection sampling and Int63 masking see
	// the same stream, including after a reseed of the same Rand.
	rng := rand.New(&src)
	for _, seed := range []int64{5, 20030407, -1 << 62} {
		want := rand.New(rand.NewSource(seed))
		rng.Seed(seed)
		for n := 0; n < 2*rngLen; n++ {
			bound := 1 + n%97
			if w, g := want.Intn(bound), rng.Intn(bound); g != w {
				t.Fatalf("seed %d: Intn(%d) #%d = %d, want %d", seed, bound, n, g, w)
			}
		}
		if w, g := want.Int63(), rng.Int63(); g != w {
			t.Fatalf("seed %d: Int63 = %d, want %d", seed, g, w)
		}
	}
}

// TestTrialSourceIntnMatchesMathRand pins the direct draw to
// rand.New(rand.NewSource(s)).Intn(n): one, powers of two (masked), odd
// bounds and 2³¹−1 (the rejection loop's path), and 2³⁰+1, which rejects
// about every other draw, over 3×607 draws per seed so the register
// wraps; and, through a draw table as RandomMean fills it, every bound
// from 1 to 64, drawn in turn.
func TestTrialSourceIntnMatchesMathRand(t *testing.T) {
	var src trialSource
	seeds := []int64{0, 1, 20030407, -1 << 62}
	for _, n := range []int{1, 2, 3, 64, 97, int32max, 1<<30 + 1} {
		thr, mul := bound(n)
		for _, seed := range seeds {
			want := rand.New(rand.NewSource(seed))
			src.Seed(seed)
			for k := 0; k < 3*rngLen; k++ {
				if w, g := want.Intn(n), src.below(thr, mul, n); g != w {
					t.Fatalf("seed %d: draw %d of Intn(%d) = %d, want %d", seed, k, n, g, w)
				}
			}
		}
	}
	draws := make([]uint64, 2*64)
	fillDraws(draws)
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		src.Seed(seed)
		for k := 0; k < 3*rngLen; k++ {
			n := 1 + k%64
			if w, g := want.Intn(n), src.intn(draws, n); g != w {
				t.Fatalf("seed %d: draw %d of Intn(%d) from the table = %d, want %d", seed, k, n, g, w)
			}
		}
	}
}

// TestMulmodMatchesRemainder pins the Mersenne reduction to % (2³¹−1) at
// the edges of its range and on the seed chain's own products.
func TestMulmodMatchesRemainder(t *testing.T) {
	vals := []uint64{0, 1, 2, 48271, 1<<31 - 3, int32max - 1, 1 << 30, 89482311}
	for _, p := range chainPow {
		vals = append(vals, p[:]...)
	}
	for _, a := range vals {
		for _, b := range vals {
			if g, w := mulmod(a, b), a*b%int32max; g != w {
				t.Fatalf("mulmod(%d, %d) = %d, want %d", a, b, g, w)
			}
		}
	}
}
