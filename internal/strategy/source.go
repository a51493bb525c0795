package strategy

import (
	"math/bits"
	"math/rand"
)

// math/rand's Source (frozen by the Go 1 compatibility promise) is an
// additive lagged Fibonacci generator over a 607-word register with tap
// 273. Seed fills the register from a Park–Miller chain
// x' = 48271·x mod (2³¹−1): it discards seedSkip chain values, then builds
// word i from the next three values XORed with a fixed "cooked" constant.
const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	seedSkip = 20
)

// chainPow[i][j] is 48271^(seedSkip+1+3i+j) mod (2³¹−1), so the three
// chain values register word i is built from are seed·chainPow[i][j] mod
// (2³¹−1): any word can be computed directly instead of by stepping the
// chain from the seed, and its three products do not wait on each other.
// rngCooked[i] is the constant Seed XORs into register word i. Both are
// filled once by init.
var (
	chainPow  [rngLen][3]uint64
	rngCooked [rngLen]uint64
)

// init derives both tables. The cooked constants are recovered from a real
// rand.NewSource stream rather than copied: after rngLen outputs every
// register word has been overwritten by exactly one output, so running the
// recurrence backwards from those outputs yields the seeded register, and
// XORing out the seed's chain words leaves the constants.
func init() {
	p := uint64(1)
	for k := 0; k <= seedSkip; k++ {
		p = mulmod(p, 48271)
	}
	for i := range chainPow {
		for j := range chainPow[i] {
			chainPow[i][j] = p
			p = mulmod(p, 48271)
		}
	}

	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	feed, tap := rngLen-rngTap, 0
	for n := 0; n < rngLen; n++ {
		feed, tap = (feed+rngLen-1)%rngLen, (tap+rngLen-1)%rngLen
		rngCooked[feed] = src.Uint64()
	}
	// feed and tap now name the last step; undo the steps newest first.
	for n := 0; n < rngLen; n++ {
		rngCooked[feed] -= rngCooked[tap]
		feed, tap = (feed+1)%rngLen, (tap+1)%rngLen
	}
	for i := range rngCooked {
		rngCooked[i] ^= chainWord(seed, i)
	}
}

// mulmod returns a·b mod (2³¹−1) for a, b < 2³¹−1 by the Mersenne
// reduction: 2³¹ ≡ 1, so the product's bits above bit 30 fold onto its
// low 31 bits without changing the residue. The product is at most
// (2³¹−2)², so the fold is at most (2³¹−4) + (2³¹−1) < 2(2³¹−1), and one
// conditional subtraction leaves exactly a·b % (2³¹−1).
func mulmod(a, b uint64) uint64 {
	p := a * b
	r := p>>31 + p&int32max
	if r >= int32max {
		r -= int32max
	}
	return r
}

// chainWord is the seed-chain part of register word i for a normalized
// seed in [1, 2³¹−2]: three consecutive chain values packed at bit offsets
// 40, 20 and 0.
func chainWord(seed uint64, i int) uint64 {
	p := &chainPow[i]
	return mulmod(seed, p[0])<<40 ^ mulmod(seed, p[1])<<20 ^ mulmod(seed, p[2])
}

// trialSource yields exactly the stream of rand.NewSource(s) after
// Seed(s), but seeds in O(1): instead of stepping the seed chain 1841
// times and filling all 607 register words, it builds each word on first
// use. A Table 3 Random trial makes a few dozen draws on average, touching
// a small fraction of the register, so reseeding one trialSource per trial
// costs far less than a fresh rand.NewSource. Its intn is rand.Rand's
// Intn read from a draw table that RandomMean fills once per call, so a
// trial draws with no rand.Rand in between and no division.
type trialSource struct {
	seed      uint64
	tap, feed int
	have      [(rngLen + 63) / 64]uint64 // bit i: vec[i] is built
	vec       [rngLen]uint64
}

// Seed resets the source to the start of rand.NewSource(seed)'s stream.
func (s *trialSource) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, rngLen-rngTap
	s.have = [len(s.have)]uint64{}
}

// word returns register word i, building it from the seed if this is its
// first use since Seed.
func (s *trialSource) word(i int) uint64 {
	if bit := uint64(1) << (i % 64); s.have[i/64]&bit == 0 {
		s.have[i/64] |= bit
		s.vec[i] = chainWord(s.seed, i) ^ rngCooked[i]
	}
	return s.vec[i]
}

// Uint64 steps the lagged Fibonacci register exactly as math/rand does.
func (s *trialSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return x
}

// Int63 returns Uint64 with the sign bit cleared, as math/rand does.
func (s *trialSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// fillDraws fills the draw table d with bound(n) for the bounds
// n = 1..len(d)/2, entry n at d[2n−2] and d[2n−1].
func fillDraws(d []uint64) {
	for i := 0; i+1 < len(d); i += 2 {
		d[i], d[i+1] = bound(i/2 + 1)
	}
}

// bound returns the two numbers a draw below n needs: Int31n's rejection
// threshold, the largest draw it keeps (one below the largest multiple of
// n up to 2³¹, so 2³¹−1 for a power of two), and Lemire's fastmod
// multiplier ⌊(2⁶⁴−1)/n⌋+1 (which wraps to 0 for n = 1).
func bound(n int) (thr, mul uint64) {
	return 1<<31 - 1 - 1<<31%uint64(n), ^uint64(0)/uint64(n) + 1
}

// intn returns what rand.New(s).Intn(n) would for 0 < n ≤ len(d)/2, where
// d is a draw table.
func (s *trialSource) intn(d []uint64, n int) int {
	e := d[2*n-2:][:2]
	return s.below(e[0], e[1], n)
}

// below returns rand.Rand.Intn(n) for 0 < n ≤ 2³¹−1 given bound(n): its
// Int31n, which masks a draw for a power of two and otherwise rejects
// draws above the largest multiple of n, each draw being Int63's top 31
// bits. Both cases are one test against the threshold, and the remainder
// is Lemire's fastmod: for 32-bit v and n, v mod n is the high word of
// (mul·v mod 2⁶⁴)·n, and for a power of two that is v's low bits, the
// mask.
func (s *trialSource) below(thr, mul uint64, n int) int {
	v := uint64(s.Int63() >> 32)
	for v > thr {
		v = uint64(s.Int63() >> 32)
	}
	r, _ := bits.Mul64(mul*v, uint64(n))
	return int(r)
}
