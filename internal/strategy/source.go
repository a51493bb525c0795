package strategy

import "math/rand"

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

// chainPow[i] is 48271^(seedSkip+1+3i) mod (2³¹−1), so the first chain
// value register word i is built from is seed·chainPow[i] mod (2³¹−1):
// any word can be computed directly instead of by stepping the chain from
// the seed. rngCooked[i] is the constant Seed XORs into register word i.
// Both are filled once by init.
var chainPow, rngCooked [rngLen]uint64

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
		chainPow[i] = p
		p = mulmod(mulmod(mulmod(p, 48271), 48271), 48271)
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
	x0 := mulmod(seed, chainPow[i])
	x1 := mulmod(x0, 48271)
	x2 := mulmod(x1, 48271)
	return x0<<40 ^ x1<<20 ^ x2
}

// trialSource yields exactly the stream of rand.NewSource(s) after
// Seed(s), but seeds in O(1): instead of stepping the seed chain 1841
// times and filling all 607 register words, it builds each word on first
// use. A Table 3 Random trial makes a few dozen draws on average, touching
// a small fraction of the register, so reseeding one trialSource per trial
// costs far less than a fresh rand.NewSource. Its intn is rand.Rand's
// Intn, so a trial draws without a rand.Rand in between.
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

// intn returns what rand.New(s).Intn(n) would for 0 < n ≤ 2³¹−1: its
// Int31n, which masks a draw for a power of two and otherwise rejects
// draws above the largest multiple of n, each draw being Int63's top 31
// bits.
func (s *trialSource) intn(n int) int {
	if n&(n-1) == 0 {
		return int(int32(s.Int63()>>32) & int32(n-1))
	}
	max := int32(1<<31 - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > max {
		v = int32(s.Int63() >> 32)
	}
	return int(v % int32(n))
}
