// Package lazyrand is the trial random source. A Snowboard trial reseeds its
// generator ("always same randomness in trial", §4.4) and then draws a few
// dozen numbers; math/rand's source pays for all 607 words of its
// lagged-Fibonacci state on every Seed. Source yields exactly the stream of
// rand.NewSource(seed) but derives each state word the first time a draw
// reads it, so reseeding costs nothing and a short trial touches only the
// words it uses.
package lazyrand

import "math/rand"

// The additive lagged-Fibonacci generator of math/rand:
// x[n] = x[n-273] + x[n-607], seeded through the Lehmer generator
// s -> 48271·s mod (2^31 - 1).
const (
	length   = 607
	tap      = 273
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	zeroSeed = 89482311 // what math/rand substitutes for a seed ≡ 0 mod lehmerM
)

// Seeding runs the Lehmer generator 20 steps and then three more per state
// word, so word i is built from seed·A^(21+3i), seed·A^(22+3i) and
// seed·A^(23+3i) — pow[i] holds the first of those powers — XORed with a
// constant of math/rand's, cooked[i].
var pow, cooked [length]uint64

// mulmod returns a·b mod lehmerM for a, b < lehmerM. 2^31 ≡ 1 (mod
// lehmerM), so the product's bits from 31 up fold onto the bits below,
// twice, and no division is needed. The second fold leaves at most
// lehmerM, congruent to the product, and lehmerM itself only for a
// product that is a multiple of it: with a prime modulus and factors below
// it, only 0, which folds to 0.
func mulmod(a, b uint64) uint64 {
	x := a * b
	x = x&lehmerM + x>>31 // < 2^32
	return x&lehmerM + x>>31
}

// lehmerA2 is A² mod lehmerM: a word's third Lehmer value is its first
// times A², without waiting for the second.
const lehmerA2 = lehmerA * lehmerA % lehmerM

// raw returns state word i for a seed already reduced into [1, lehmerM),
// before the cooked constant is mixed in.
func raw(seed uint64, i int) uint64 {
	x1 := mulmod(seed, pow[i])
	x2 := mulmod(x1, lehmerA)
	x3 := mulmod(x1, lehmerA2)
	return x1<<40 ^ x2<<20 ^ x3
}

// init recovers cooked from math/rand itself rather than vendoring its
// table. Output k of the generator is vec[feed]+vec[tap] written back to
// vec[feed], with feed = 333-k and tap = 606-k (mod 607); unwinding the
// first 607 outputs of rand.NewSource(1) therefore gives its initial state,
// and XORing out raw(1, i) leaves the constants.
func init() {
	p := uint64(1)
	for k := 0; k < 21; k++ {
		p = mulmod(p, lehmerA)
	}
	for i := range pow {
		pow[i] = p
		p = mulmod(mulmod(mulmod(p, lehmerA), lehmerA), lehmerA)
	}

	src := rand.NewSource(1).(rand.Source64)
	var out, vec [length]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	// Outputs 273.. add a word to an earlier output (their tap slot was
	// already overwritten): that yields words 60..0 and 606..334.
	for k := tap; k < length; k++ {
		vec[(length-tap-1-k+length)%length] = out[k] - out[k-tap]
	}
	// Outputs 0..272 add two initial words, the tap one now known.
	for k := 0; k < tap; k++ {
		vec[length-tap-1-k] = out[k] - vec[length-1-k]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ raw(1, i)
	}
}

// Source is a rand.Source64 whose stream equals rand.NewSource(seed)'s for
// every seed. Seed is O(1); state words materialise on first use. Like
// math/rand's source it is not safe for concurrent use.
type Source struct {
	seed      uint64 // reduced into [1, lehmerM)
	tap, feed int
	vec       [length]uint64
	have      [(length + 63) / 64]uint64 // bit i: vec[i] is materialised
}

// New returns a *rand.Rand over a fresh Source; r.Seed reseeds it in place.
func New(seed int64) *rand.Rand {
	s := &Source{}
	s.Seed(seed)
	return rand.New(s)
}

// Seed implements rand.Source.
func (s *Source) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.seed = uint64(seed)
	s.tap, s.feed = 0, length-tap
	s.have = [len(s.have)]uint64{}
}

// word returns state word i, deriving it first if this seed has not read
// it yet. Kept small enough to inline into Uint64.
func (s *Source) word(i uint) uint64 {
	if s.have[i/64]&(1<<(i%64)) == 0 {
		s.derive(i)
	}
	return s.vec[i]
}

func (s *Source) derive(i uint) {
	s.have[i/64] |= 1 << (i % 64)
	s.vec[i] = raw(s.seed, int(i)) ^ cooked[i]
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += length
	}
	if s.feed--; s.feed < 0 {
		s.feed += length
	}
	x := s.word(uint(s.feed)) + s.word(uint(s.tap))
	s.vec[s.feed] = x
	return x
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
