package bccheck

// State interning. Encoded states are folded to 128-bit keys so the
// visited set stores 16 bytes per state instead of the whole encoding.
// The hash is a fixed-seed wyhash-style construction over two mixing
// lanes; with a fixed seed any collision would at least be deterministic
// across runs, and at the default 2M-state cap the collision probability
// of a well-mixed 128-bit hash is ~2^-87 — far below the chance of a
// memory fault corrupting the search.

import (
	"encoding/binary"
	"math/bits"
)

type hkey struct{ hi, lo uint64 }

const (
	hm1 = 0xa0761d6478bd642f
	hm2 = 0xe7037ed1a0b428db
	hm3 = 0x8ebc6af09c88c6e3
	hm4 = 0x589965cc75374cc3
)

// mum is the wyhash mixing primitive: a 64x64->128 multiply folded back
// to 64 bits.
func mum(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// hash128 folds an encoded state to a 128-bit key.
func hash128(p []byte) hkey {
	a := uint64(len(p))*hm4 ^ hm1
	b := uint64(len(p))*hm3 ^ hm2
	for len(p) >= 16 {
		x := binary.LittleEndian.Uint64(p)
		y := binary.LittleEndian.Uint64(p[8:])
		a = mum(x^a, y^hm1)
		b = mum(y^b, x^hm2)
		p = p[16:]
	}
	if len(p) > 0 {
		var tail [16]byte
		copy(tail[:], p)
		x := binary.LittleEndian.Uint64(tail[:8])
		y := binary.LittleEndian.Uint64(tail[8:])
		a = mum(x^a, y^hm3)
		b = mum(y^b, x^hm4)
	}
	return hkey{hi: mum(a^hm3, b^hm1), lo: mum(a^hm4, b^hm2)}
}

// visitedSet is the insert-only set of explored state keys.
type visitedSet map[hkey]struct{}

// add inserts k and reports whether it was absent.
func (v visitedSet) add(k hkey) bool {
	if _, ok := v[k]; ok {
		return false
	}
	v[k] = struct{}{}
	return true
}
