package xsort

import (
	"bytes"
	"encoding/binary"
	"sort"

	"pyro/internal/keys"
)

// keyer compares the sort keys of one sort operator, or of one MRS segment. A
// key is an order-preserving byte string (package keys), encoded once as the
// row enters the sort; a buffered row carries its first width bytes — past the
// shared-prefix skip — in its store entry and the rest, if any, beside the
// row, so a comparison is one bytes.Compare of two prefixes and, only when
// both are truncated and tie, a second of the overflows. A row read back from
// a run is keyed again from its encoded bytes (merge.go).
//
// A keyer is immutable: workers share it.
type keyer struct {
	codec *keys.Codec
	// skip is the number of leading encoded-key bytes every key this keyer
	// compares is known to share. MRS binds one skip-carrying keyer per
	// partial-sort segment (the encoded byte length of the segment's
	// shared `given` prefix, keys.Codec.KeyPrefixLen), so entries hold, and
	// comparisons and radix passes touch, suffix bytes only.
	skip int
	// width is the entry prefix length of the stores this keyer compares
	// (entryWidth).
	width int
}

// withSkip returns a keyer that compares keys past the first skip encoded
// bytes. The caller guarantees every key it will ever see shares those bytes
// (and is at least that long); MRS derives skip per segment from the shared
// `given`-prefix encoding.
func (k *keyer) withSkip(skip int) *keyer {
	return &keyer{codec: k.codec, skip: skip, width: k.width}
}

// suffix returns the part of an input row's full key that entries and
// comparisons work on.
func (k *keyer) suffix(r inputRow) []byte { return r.key[k.skip:] }

// compareEntries orders two entries of st from prefix byte depth on (the
// caller knows the bytes before it agree). Callers count comparisons.
func (k *keyer) compareEntries(st *rowStore, a, b []byte, depth int) int {
	w := k.width
	if c := compareKeys(a[depth:w], b[depth:w]); c != 0 {
		return c
	}
	// Equal prefixes: complete keys are equal keys, and a complete key
	// cannot tie a truncated one (keys.Codec.AppendFixed). Truncated ones
	// are decided by what the entries could not hold.
	if a[w]&b[w]&flagTrunc == 0 {
		return 0
	}
	oa, _ := st.overflow(a)
	ob, _ := st.overflow(b)
	return bytes.Compare(oa, ob)
}

// compareKeys orders two encoded keys, or parts of keys, bytewise. Keys that
// both reach eight bytes are compared on those first, as one big-endian
// uint64 — the head of a key nearly always decides, and deciding it in a
// register is what a heap or merge comparison mostly costs — and on the rest
// with bytes.Compare only when the heads tie.
func compareKeys(a, b []byte) int {
	if len(a) >= 8 && len(b) >= 8 {
		if x, y := binary.BigEndian.Uint64(a), binary.BigEndian.Uint64(b); x != y {
			if x < y {
				return -1
			}
			return 1
		}
		a, b = a[8:], b[8:]
	}
	return bytes.Compare(a, b)
}

// bound is a buffered row's key lifted out of the store: what input rows are
// compared against once the row itself may be gone — the row replacement
// selection wrote last, a bounded segment's cut-off. It is the key past the
// keyer's skip — the entry's prefix, zero-padded, followed by the overflow if
// the prefix is truncated.
type bound struct {
	key   []byte
	trunc bool
}

// lift fills b from entry e, reusing b's storage.
func (k *keyer) lift(b *bound, st *rowStore, e []byte) {
	b.key = append(b.key[:0], e[:k.width]...)
	if b.trunc = e[k.width]&flagTrunc != 0; b.trunc {
		over, _ := st.overflow(e)
		b.key = append(b.key, over...)
	}
}

// compareBound orders an input row against a lifted key.
func (k *keyer) compareBound(r inputRow, b *bound) int {
	key := r.key[k.skip:]
	if b.trunc {
		return compareKeys(key, b.key)
	}
	// b's key is complete and zero-padded to the prefix width. Keys are
	// prefix-free, so two different ones differ within the shorter one: as
	// far as r's key reaches into the padded prefix decides, and agreement
	// there means the same key.
	n := min(len(key), k.width)
	return compareKeys(key[:n], b.key[:n])
}

// sortByKey stable-sorts hs, handles of st's entries, under the keyer, and
// returns the key comparisons it made. Sorting handles instead of entries
// keeps the sort's data movement to 4-byte swaps; emission then reads st
// through the permutation. The count is returned rather than accumulated so
// parallel segment sorts can tally locally and publish once, keeping
// SortStats free of atomics and its totals deterministic.
func sortByKey(st *rowStore, ky *keyer, hs []uint32) int64 {
	var comparisons int64
	sort.SliceStable(hs, func(i, j int) bool {
		comparisons++
		return ky.compareEntries(st, st.entry(hs[i]), st.entry(hs[j]), 0) < 0
	})
	return comparisons
}
