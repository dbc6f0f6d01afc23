package opt

import "math/rand"

// Every backend draws from math/rand's additive lagged Fibonacci
// generator, and each seed's stream is part of the output contract: the
// §6 tables and the CLI and JSON goldens are pinned to it. Seeding that
// generator costs 1,841 Lehmer steps to fill its 607-word register, yet
// a short search draws a few dozen numbers. newRand yields the same
// stream but fills each register word on its first read.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lehmerM  = 1<<31 - 1 // modulus of math/rand's seeding chain
	lehmerA  = 48271     // multiplier of math/rand's seeding chain
	rngSkip  = 20        // chain steps math/rand discards before word 0
	rngZeroS = 89482311  // math/rand's replacement for a zero seed
)

var (
	// rngPow[i] is lehmerA^(21+3i) mod lehmerM: word i of the register
	// is built from chain positions 21+3i, 22+3i and 23+3i.
	rngPow [rngLen]uint64
	// rngCooked is math/rand's constant register mask, recovered at init
	// from the generator's own output (see deriveCooked).
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for k := 0; k <= rngSkip; k++ {
		p = lehmerMul(p, lehmerA)
	}
	a3 := lehmerMul(lehmerMul(lehmerA, lehmerA), lehmerA)
	for i := range rngPow {
		rngPow[i] = p
		p = lehmerMul(p, a3)
	}
	rngCooked = deriveCooked()
}

// lehmerMul returns x·a mod 2^31-1 for x, a in [1, 2^31-2].
func lehmerMul(x, a uint64) uint64 {
	p := x * a
	p = p&lehmerM + p>>31
	if p >= lehmerM {
		p -= lehmerM
	}
	return p
}

// rngWord returns the seeding chain's contribution to register word i
// for a reduced seed x0: the value math/rand XORs with rngCooked[i].
func rngWord(x0 uint64, i int) int64 {
	x1 := lehmerMul(x0, rngPow[i])
	x2 := lehmerMul(x1, lehmerA)
	x3 := lehmerMul(x2, lehmerA)
	return int64(x1<<40 ^ x2<<20 ^ x3)
}

// reduceSeed maps a seed into the chain's state space [1, 2^31-2]
// exactly as math/rand's Seed does.
func reduceSeed(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = rngZeroS
	}
	return uint64(seed)
}

// deriveCooked recovers math/rand's rngCooked table from the first lap
// of one seeded source's output. Output j (1-based) is the sum of the
// feed and tap words; for j ≤ 273 both are still the seeded values,
// beyond that the tap word is output j−273. Unwinding those sums gives
// the seeded register v, and rngCooked[i] = v[i] ⊕ rngWord(seed, i).
func deriveCooked() [rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var o [rngLen + 1]int64
	for j := 1; j <= rngLen; j++ {
		o[j] = int64(src.Uint64())
	}
	const feed0 = rngLen - rngTap // 334
	var v [rngLen]int64
	for j := rngTap + 1; j <= feed0; j++ {
		v[feed0-j] = o[j] - o[j-rngTap]
	}
	for j := feed0 + 1; j <= rngLen; j++ {
		v[feed0+rngLen-j] = o[j] - o[j-rngTap]
	}
	for j := 1; j <= rngTap; j++ {
		v[feed0-j] = o[j] - v[rngLen-j]
	}
	var cooked [rngLen]int64
	x0 := reduceSeed(seed)
	for i := range cooked {
		cooked[i] = v[i] ^ rngWord(x0, i)
	}
	return cooked
}

// lazySource is math/rand's rngSource with lazy seeding: Seed only
// records the reduced seed, and each register word is computed on its
// first read. After one lap every word has been read and pending is 0,
// so steady-state draws cost one extra comparison.
type lazySource struct {
	tap, feed int
	x0        uint64
	pending   int // register words not yet filled
	filled    [(rngLen + 63) / 64]uint64
	vec       [rngLen]int64
}

// newRand returns a generator whose stream equals that of
// rand.New(rand.NewSource(seed)) for every seed and every method.
func newRand(seed int64) *rand.Rand {
	s := &lazySource{}
	s.Seed(seed)
	return rand.New(s)
}

// Seed implements rand.Source.
func (s *lazySource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.x0 = reduceSeed(seed)
	s.pending = rngLen
	s.filled = [len(s.filled)]uint64{}
}

func (s *lazySource) fill(i int) {
	bit := uint64(1) << (i & 63)
	if s.filled[i>>6]&bit != 0 {
		return
	}
	s.filled[i>>6] |= bit
	s.pending--
	s.vec[i] = rngWord(s.x0, i) ^ rngCooked[i]
}

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.pending > 0 {
		s.fill(s.feed)
		s.fill(s.tap)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
