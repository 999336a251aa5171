package xsort

import (
	"bytes"
	"fmt"
	"sort"

	"pyro/internal/keys"
	"pyro/internal/types"
)

// keyed is a tuple paired with its normalized sort key — the head of one
// merge cursor (merge.go, flatmerge.go), re-wrapped as tuples come off a
// run. Buffered rows are never keyed: they live encoded in a rowStore with a
// fixed-width entry apiece. In comparator mode key is nil.
type keyed struct {
	key []byte
	t   types.Tuple
}

// keyer produces and compares sort keys for one sort operator. In encoded
// mode a key is an order-preserving byte string (package keys) and a
// buffered row carries its first width bytes — past the shared-prefix skip —
// in its store entry, the rest, if any, beside the row: a comparison is one
// bytes.Compare of two prefixes and, only when both are truncated and tie, a
// second of the overflows. In comparator mode (Config.Keys, or a key shape
// the codec cannot encode) entries carry no prefix and every comparison
// decodes both rows and walks the key fields.
//
// A keyer's scratch buffers make wrap and the comparator-mode comparisons
// single-goroutine; concurrent workers each take a clone.
type keyer struct {
	codec *keys.Codec                // nil => comparator mode
	cmp   func(a, b types.Tuple) int // comparator mode / fallback
	// skip is the number of leading encoded-key bytes every key this keyer
	// compares is known to share. MRS binds one skip-carrying keyer per
	// partial-sort segment (the encoded byte length of the segment's
	// shared `given` prefix, keys.Codec.PrefixLen), so entries hold, and
	// comparisons and radix passes touch, suffix bytes only.
	skip int
	// width is the entry prefix length of the stores this keyer compares
	// (entryLayout.width; 0 in comparator mode).
	width int

	scratch []byte      // wrap: encode buffer
	arena   []byte      // wrap: current arena block; merge-head keys are copied in
	ta, tb  types.Tuple // comparator mode: decode scratch
}

const arenaBlockSize = 64 << 10

// newKeyer builds a keyer for the given mode. codec may be nil even in
// encoded mode (unsupported key shape), in which case the comparator is
// used — callers pass the codec they managed to build.
func newKeyer(mode KeyMode, codec *keys.Codec, cmp func(a, b types.Tuple) int) *keyer {
	if mode == KeyComparator {
		codec = nil
	}
	return &keyer{codec: codec, cmp: cmp}
}

// encoded reports whether keys are normalized byte strings.
func (k *keyer) encoded() bool { return k.codec != nil }

// clone returns a keyer with the same codec, comparator, skip and width but
// private scratch buffers.
func (k *keyer) clone() *keyer {
	return &keyer{codec: k.codec, cmp: k.cmp, skip: k.skip, width: k.width}
}

// withSkip returns a clone that compares keys past the first skip encoded
// bytes. The caller guarantees every key the clone will ever see shares
// those bytes (and is at least that long); MRS derives skip per segment
// from the shared `given`-prefix encoding.
func (k *keyer) withSkip(skip int) *keyer {
	c := k.clone()
	c.skip = skip
	return c
}

// wrap attaches t's sort key for a merge head. Keys are encoded into a
// reused scratch buffer and then copied into a block arena, so per-tuple
// allocations are batched; earlier keys stay valid because a full block is
// simply abandoned to the garbage collector when the next one is carved.
func (k *keyer) wrap(t types.Tuple) keyed {
	if k.codec == nil {
		return keyed{t: t}
	}
	k.scratch = k.codec.Append(k.scratch[:0], t)
	n := len(k.scratch)
	if cap(k.arena)-len(k.arena) < n {
		k.arena = make([]byte, 0, max(arenaBlockSize, n))
	}
	start := len(k.arena)
	k.arena = append(k.arena, k.scratch...)
	return keyed{key: k.arena[start:len(k.arena):len(k.arena)], t: t}
}

// compare orders two merge heads.
func (k *keyer) compare(a, b keyed) int {
	if k.codec != nil {
		return bytes.Compare(a.key[k.skip:], b.key[k.skip:])
	}
	return k.cmp(a.t, b.t)
}

// suffix returns the part of an input row's full key that entries and
// comparisons work on.
func (k *keyer) suffix(r inputRow) []byte {
	if k.codec == nil {
		return nil
	}
	return r.key[k.skip:]
}

// tuple decodes entry e's row into dst's storage (comparator mode).
func (k *keyer) tuple(dst types.Tuple, st *rowStore, e []byte) types.Tuple {
	t, _, err := types.DecodeTupleInto(dst, st.rowAt(e))
	if err != nil {
		panic(fmt.Sprintf("xsort: decoding a buffered row: %v", err))
	}
	return t
}

// compareEntries orders two entries of st from prefix byte depth on (the
// caller knows the bytes before it agree). Callers count comparisons.
func (k *keyer) compareEntries(st *rowStore, a, b []byte, depth int) int {
	if k.codec == nil {
		k.ta, k.tb = k.tuple(k.ta, st, a), k.tuple(k.tb, st, b)
		return k.cmp(k.ta, k.tb)
	}
	w := k.width
	if c := bytes.Compare(a[depth:w], b[depth:w]); c != 0 {
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

// bound is a buffered row's key lifted out of the store: what input rows are
// compared against once the row itself may be gone — the row replacement
// selection wrote last, a bounded segment's cut-off. It is the key past the
// keyer's skip — the entry's prefix, zero-padded, followed by the overflow if
// the prefix is truncated — or in comparator mode the decoded row.
type bound struct {
	key   []byte
	trunc bool
	t     types.Tuple
}

// lift fills b from entry e, reusing b's storage.
func (k *keyer) lift(b *bound, st *rowStore, e []byte) {
	if k.codec == nil {
		b.t = k.tuple(b.t, st, e)
		return
	}
	b.key = append(b.key[:0], e[:k.width]...)
	if b.trunc = e[k.width]&flagTrunc != 0; b.trunc {
		over, _ := st.overflow(e)
		b.key = append(b.key, over...)
	}
}

// compareBound orders an input row against a lifted key.
func (k *keyer) compareBound(r inputRow, b *bound) int {
	if k.codec == nil {
		return k.cmp(r.t, b.t)
	}
	key := r.key[k.skip:]
	if b.trunc {
		return bytes.Compare(key, b.key)
	}
	// b's key is complete and zero-padded to the prefix width. Keys are
	// prefix-free, so two different ones differ within the shorter one: as
	// far as r's key reaches into the padded prefix decides, and agreement
	// there means the same key.
	n := min(len(key), k.width)
	return bytes.Compare(key[:n], b.key[:n])
}

// sortEntries stable-sorts the entries of st under the keyer, returning the
// emission order as a permutation of entry handles and the number of key
// comparisons performed. Sorting handles instead of entries keeps the sort's
// data movement to 4-byte swaps; emission then reads st through the
// permutation. The count is returned rather than accumulated so parallel
// segment sorts can tally locally and publish once, keeping SortStats free
// of atomics and its totals deterministic.
func sortEntries(st *rowStore, ky *keyer) ([]uint32, int64) {
	order := st.handles(make([]uint32, 0, st.appended))
	var comparisons int64
	sort.SliceStable(order, func(i, j int) bool {
		comparisons++
		return ky.compareEntries(st, st.entry(order[i]), st.entry(order[j]), 0) < 0
	})
	return order, comparisons
}
