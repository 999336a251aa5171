package xsort

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"pyro/internal/storage"
	"pyro/internal/types"
)

// rowStore is the sort's memory: every row a sort buffers lives here
// encoded, in the page row format it arrived in and will spill as, and
// beside it one fixed-width entry
//
//	[ width bytes: normalized-key prefix, zero-padded ][ 1 byte: flags ][ u32 row offset ]
//
// (entry.go). Rows and entries are appended to page-sized
// blocks drawn one at a time from the disk's block pool, so the memory a
// sort holds is, exactly, held() blocks: that count is what the budget is
// compared to, what PeakMemBytes records, and what a spill or a Close gives
// back. Nothing is sized up front; a store that buffers ten rows holds two
// blocks.
//
// A key longer than the prefix keeps its remaining bytes — the overflow — in
// the row's slot, in front of the row: [overflow][its length][row]. Run
// formation sorts permutations of entry handles (radix.go, key.go): a
// comparison reads two prefixes and reaches for the overflows only when both
// are truncated and tie; nothing is ever re-derived from a row. A spill
// copies row bytes to the run file (WriteRaw) and nothing else; emission
// decodes each row once.
//
// Row slots are recycled: replacement selection frees the row it has just
// written and gives the slot to the incoming row, and a bounded collector
// frees the rows its selection dropped. A store keeps free slots by capacity
// class (4 bytes wide); a row takes a free slot that holds it, and the bytes
// the slot has to spare ride in the entry's flag byte, so the slot comes back
// at its full capacity whichever row used it last. Replacement selection
// frees a row for every row it admits, so its store pads: it rounds slot
// sizes up to the class width, and rows of varying width then fit each
// other's slots. Every other store packs its rows as they come — a bounded
// collector frees rows only when it selects, and one that spills never does,
// so it forms the same batches as an unbounded sort. Rows of a fixed-width
// schema always fit exactly. A row that finds no slot and no room under the
// budget is refused, and its owner frees rows until one fits; nothing is ever
// moved, so widths that vary by more than the flag byte can record leave
// slots idle until the store is released.
//
// A store is owned by one goroutine at a time: the consumer while it is
// filled, then whichever worker sorts or spills it. release returns every
// block and must run on every path — exhaustion, an early Close, an error
// or panic unwinding.
type rowStore struct {
	disk      *storage.Disk
	blockSize int
	width     int // entry prefix bytes
	size      int // entry bytes: width + entryOverhead
	pad       int // row slots are multiples of this: slotGranule in replacement selection's store, else 1

	// rows[off/blockSize] is the block holding the row at offset off; a
	// multi-page block (a row larger than a page) is followed by nil
	// placeholders so the arithmetic holds. rowPos is the append position
	// in the last block.
	rows   []*storage.Block
	rowPos int

	// Entry i of block b has handle b<<shift | i. appended counts the
	// handles handed out in order (a dense prefix of the handle space as
	// long as no entry has been freed), live the entries in use.
	ents     []*storage.Block
	entBufs  [][]byte // ents[i].Buf, for the comparison loops
	perBlock int
	shift    uint
	mask     uint32
	appended int
	live     int

	pages    int          // blocks held, in pages: the store's footprint
	freeEnts []uint32     // recycled entry handles
	freeRows [][]freeSlot // recycled row slots by capacity/slotGranule
	nFree    int
	freed    bool // a row was freed since the store was last empty: its last row blocks need not hold its latest arrivals
}

// freeSlot is a recycled row slot.
type freeSlot struct{ off, size uint32 }

// Entry flag byte: the tie flag, the parity of the
// replacement-selection run the row belongs to (heap.go), and the bytes of
// its slot the row does not use.
const (
	flagTrunc    = 1 << 0
	flagRun      = 1 << 1
	slackShift   = 2
	maxSlack     = 1<<(8-slackShift) - 1
	slotGranule  = 4
	maxStoreSize = math.MaxUint32 - 1 // row offsets are u32
	deadEntry    = math.MaxUint32     // row offset of a freed entry
)

// newRowStore returns an empty store whose entries carry width prefix bytes
// (entryWidth). padded rounds its row slots up to the slot granule: the
// store of replacement selection, which frees a row for every row it admits.
func newRowStore(disk *storage.Disk, width int, padded bool) *rowStore {
	s := &rowStore{disk: disk, blockSize: disk.PageSize(), width: width, size: width + entryOverhead, pad: 1}
	if padded {
		s.pad = slotGranule
	}
	s.perBlock = s.blockSize / s.size
	if s.perBlock < 1 {
		panic(fmt.Sprintf("xsort: %d-byte sort entries do not fit a %d-byte block", s.size, s.blockSize))
	}
	s.shift = uint(bits.Len(uint(s.perBlock - 1)))
	s.mask = 1<<s.shift - 1
	s.rowPos = s.blockSize
	return s
}

// len returns the rows buffered.
func (s *rowStore) len() int { return s.live }

// held returns the blocks the store holds, in pages.
func (s *rowStore) held() int { return s.pages }

// bytes returns the store's footprint.
func (s *rowStore) bytes() int64 { return int64(s.pages) * int64(s.blockSize) }

// entry returns the entry with handle h.
func (s *rowStore) entry(h uint32) []byte {
	o := int(h&s.mask) * s.size
	return s.entBufs[h>>s.shift][o : o+s.size : o+s.size]
}

// handles appends the handles of all appended entries, in arrival order.
// Valid while no entry has been freed (a fill, a collected segment).
func (s *rowStore) handles(dst []uint32) []uint32 {
	for i := 0; i < s.appended; i++ {
		dst = append(dst, s.handle(i))
	}
	return dst
}

// handle returns the handle of the i-th appended entry.
func (s *rowStore) handle(i int) uint32 {
	return uint32(i/s.perBlock)<<s.shift | uint32(i%s.perBlock)
}

// locate returns the block buffer holding entry e's row and the row's
// position in it.
func (s *rowStore) locate(e []byte) ([]byte, int) {
	off := int(binary.BigEndian.Uint32(e[s.width+1:]))
	i := off / s.blockSize
	for s.rows[i] == nil {
		i-- // inside a multi-page block, past its first page
	}
	return s.rows[i].Buf, off - i*s.blockSize
}

// rowAt returns the buffered bytes from the start of entry e's row to the
// end of its block — what a decoder wants.
func (s *rowStore) rowAt(e []byte) []byte {
	buf, row := s.locate(e)
	return buf[row:]
}

// rowBytes returns exactly the encoded row of entry e.
func (s *rowStore) rowBytes(e []byte) []byte {
	row := s.rowAt(e)
	n, err := types.EncodedTupleLen(row)
	if err != nil {
		// The store wrote these bytes itself, from a tuple or from a span a
		// decoder had accepted.
		panic(fmt.Sprintf("xsort: buffered row does not frame: %v", err))
	}
	return row[:n:n]
}

// An overflow's length sits in the byte before the row; overflowLong there
// says the length is the u32 before that byte.
const overflowLong = 255

// overflowSize returns the slot bytes an n-byte key overflow takes.
func overflowSize(n int) int {
	if n < overflowLong {
		return n + 1
	}
	return n + 5
}

// overflow returns the key bytes past the prefix of truncated entry e, and
// the slot bytes they and their length occupy in front of the row.
func (s *rowStore) overflow(e []byte) ([]byte, int) {
	buf, row := s.locate(e)
	n, hdr := int(buf[row-1]), 1
	if n == overflowLong {
		n, hdr = int(binary.BigEndian.Uint32(buf[row-5:])), 5
	}
	return buf[row-hdr-n : row-hdr : row-hdr], n + hdr
}

// add buffers one row and its entry: the row's encoded bytes are copied (or
// encoded) into a row slot, and the entry takes the first width bytes of
// suffix — the row's sort key past the sorter's shared-prefix skip; when
// suffix is longer the tie flag is set and the rest goes into the slot as the
// row's overflow. run is the replacement-selection run parity (0 outside
// replacement selection). It reports false, buffering nothing, when the store may not hold the
// row: the blocks it has plus the ones the row would add exceed maxBlocks
// (never counted below one row block and one entry block). A store over its
// allowance — a governor shrink — therefore refuses every row until its owner
// has emptied it, and an empty store that has no room gives its blocks back
// and then takes whatever the row needs, so a sort always makes progress.
func (s *rowStore) add(r inputRow, suffix []byte, run byte, maxBlocks int) (uint32, bool) {
	maxBlocks = max(maxBlocks, 2)
	rowLen := len(r.enc)
	if r.enc == nil {
		rowLen = r.t.EncodedSize()
	}
	var over []byte
	n := rowLen // slot bytes: overflow, its length, the row
	if len(suffix) > s.width {
		suffix, over = suffix[:s.width], suffix[s.width:]
		n += overflowSize(len(over))
	}
	need := n
	n = (n + s.pad - 1) / s.pad * s.pad
	entPages := 0
	if len(s.freeEnts) == 0 && s.appended == len(s.ents)*s.perBlock {
		entPages = 1
	}
	class, rowPages := s.place(n)
	if s.pages+rowPages+entPages > maxBlocks ||
		int64(len(s.rows)+rowPages)*int64(s.blockSize) > maxStoreSize {
		if s.live > 0 {
			return 0, false
		}
		s.release()
		entPages = 1
		class, rowPages = s.place(n)
	}

	slot, off, slack := s.takeSlot(n, need, class, rowPages)
	if over != nil {
		k := copy(slot, over)
		if len(over) >= overflowLong {
			binary.BigEndian.PutUint32(slot[k:], uint32(len(over)))
			k += 4
			slot[k] = overflowLong
		} else {
			slot[k] = byte(len(over))
		}
		slot, off = slot[k+1:], off+uint32(k+1)
	}
	if r.enc != nil {
		copy(slot, r.enc)
	} else {
		r.t.Encode(slot[:0:rowLen])
	}

	var h uint32
	if k := len(s.freeEnts); k > 0 {
		h = s.freeEnts[k-1]
		s.freeEnts = s.freeEnts[:k-1]
	} else {
		if entPages > 0 {
			b := s.disk.GetBlock(1)
			s.ents, s.entBufs = append(s.ents, b), append(s.entBufs, b.Buf)
			s.pages++
		}
		h = uint32(s.appended/s.perBlock)<<s.shift | uint32(s.appended%s.perBlock)
		s.appended++
	}
	s.live++
	e := s.entry(h)
	flags := run | byte(slack)<<slackShift
	if over != nil {
		flags |= flagTrunc
	}
	clear(e[copy(e, suffix):s.width])
	e[s.width] = flags
	binary.BigEndian.PutUint32(e[s.width+1:], off)
	return h, true
}

// takeSlot claims the n-byte slot place chose — a recycled one, the tail of
// the current block, or a fresh block — for a row that needs need of them,
// returning the slot's bytes, its offset and the bytes it has to spare.
func (s *rowStore) takeSlot(n, need, class, rowPages int) (slot []byte, off uint32, slack int) {
	switch {
	case class >= 0:
		list := s.freeRows[class]
		f := list[len(list)-1]
		s.freeRows[class] = list[:len(list)-1]
		s.nFree--
		return s.rows[int(f.off)/s.blockSize].Buf[int(f.off)%s.blockSize:], f.off, int(f.size) - need
	case rowPages == 0:
		off = uint32((len(s.rows)-1)*s.blockSize + s.rowPos)
		slot = s.rows[len(s.rows)-1].Buf[s.rowPos:]
		s.rowPos += n
		return slot, off, n - need
	}
	off = uint32(len(s.rows) * s.blockSize)
	b := s.disk.GetBlock(rowPages)
	s.rows = append(s.rows, b)
	for i := 1; i < rowPages; i++ {
		s.rows = append(s.rows, nil) // keeps off/blockSize finding the block
	}
	s.pages += rowPages
	s.rowPos = n // past the block's end for a multi-page row: it holds that one row
	if rowPages > 1 {
		return b.Buf, off, 0
	}
	return b.Buf, off, n - need
}

// place decides where an n-byte slot goes: in a recycled slot (its capacity
// class), at the end of the current block (-1, 0), or in a fresh block of
// rowPages pages.
func (s *rowStore) place(n int) (class, rowPages int) {
	class = s.findFree(n)
	if class < 0 && n > s.blockSize-s.rowPos {
		rowPages = (n + s.blockSize - 1) / s.blockSize
	}
	return class, rowPages
}

// findFree returns the capacity class of a recycled slot for an n-byte row —
// the smallest class with a slot on top that holds it, within what the flag
// byte can record as slack — or -1. The search starts in n's own class, where
// the rows of a fixed-width schema find their exact fit.
func (s *rowStore) findFree(n int) int {
	if s.nFree == 0 {
		return -1
	}
	hi := min((n+maxSlack)/slotGranule, len(s.freeRows)-1)
	for c := n / slotGranule; c <= hi; c++ {
		if k := len(s.freeRows[c]); k > 0 {
			if spare := int(s.freeRows[c][k-1].size) - n; spare >= 0 && spare <= maxSlack {
				return c
			}
		}
	}
	return -1
}

func (s *rowStore) putFree(off, size uint32) {
	c := int(size) / slotGranule
	for len(s.freeRows) <= c {
		s.freeRows = append(s.freeRows, nil)
	}
	s.freeRows[c] = append(s.freeRows[c], freeSlot{off, size})
	s.nFree++
}

// freeRow recycles the row slot of entry e (the entry itself stays).
func (s *rowStore) freeRow(e []byte) {
	s.freed = true
	off := binary.BigEndian.Uint32(e[s.width+1:])
	size := len(s.rowBytes(e)) + int(e[s.width]>>slackShift)
	if e[s.width]&flagTrunc != 0 {
		_, n := s.overflow(e)
		off, size = off-uint32(n), size+n
	}
	if size > s.blockSize {
		// A multi-page block fits nothing else: it goes back whole.
		i := int(off) / s.blockSize
		s.pages -= s.rows[i].Pages()
		s.disk.PutBlock(s.rows[i])
		s.rows[i] = nil
		return
	}
	s.putFree(off, uint32(size))
}

// free recycles entry h and its row slot.
func (s *rowStore) free(h uint32) {
	e := s.entry(h)
	s.freeRow(e)
	binary.BigEndian.PutUint32(e[s.width+1:], deadEntry)
	s.freeEnts = append(s.freeEnts, h)
	s.live--
}

// keepOnly cuts a dense store down to the entries of kept, in that order:
// they become entries 0..len(kept)-1 (so arrival order keeps breaking ties
// for whatever is added next), every other row's slot is recycled, and the
// entry blocks past them are returned. kept and dropped together are a
// permutation of the store's handles.
func (s *rowStore) keepOnly(kept, dropped []uint32) {
	for _, h := range dropped {
		s.freeRow(s.entry(h))
	}
	s.compact(kept)
}

// compact makes the entries of kept, in that order, entries
// 0..len(kept)-1 — a dense store again, whatever was freed before — and
// returns the entry blocks past them. Every other entry is dropped; its row
// is the caller's to have recycled or given back.
func (s *rowStore) compact(kept []uint32) {
	buf := entryScratch.get(len(kept) * s.size)
	tmp := (*buf)[:0]
	for _, h := range kept {
		tmp = append(tmp, s.entry(h)...)
	}
	s.appended, s.live, s.freeEnts = len(kept), len(kept), s.freeEnts[:0]
	for i := range kept {
		copy(s.entBufs[i/s.perBlock][i%s.perBlock*s.size:], tmp[i*s.size:(i+1)*s.size])
	}
	entryScratch.put(buf)
	for need := (len(kept) + s.perBlock - 1) / s.perBlock; len(s.ents) > need; {
		last := len(s.ents) - 1
		s.disk.PutBlock(s.ents[last])
		s.ents, s.entBufs = s.ents[:last], s.entBufs[:last]
		s.pages--
	}
}

// rowPage returns the page of the row blocks that entry h's row starts on.
// A row inside a multi-page block may start past the block's first page,
// which is why evictions cut only at a block's first page.
func (s *rowStore) rowPage(h uint32) int {
	return int(binary.BigEndian.Uint32(s.entry(h)[s.width+1:])) / s.blockSize
}

// tailCut decides how much of the store a spilled segment keeps in memory
// through its final merge, which reads runs disk runs beside it, one block
// each, all within allowance blocks. It returns the first row page to evict:
// len(s.rows) when the store and the runs' read blocks fit as they are, else
// the cut that evicts the fewest last row blocks such that the rows left —
// their entries packed densely — fit with one more read block, for the run
// the evicted rows become. ok is false when nothing can stay (no cut leaves a
// row, or evict forbids cutting): the store is then written whole.
func (s *rowStore) tailCut(runs, allowance int, evict bool) (cut int, ok bool) {
	if s.live > 0 && s.pages+runs <= allowance {
		return len(s.rows), true
	}
	if !evict || s.live == 0 {
		return 0, false
	}
	onPage := make([]int, len(s.rows))
	for i := 0; i < s.appended; i++ {
		h := s.handle(i)
		if binary.BigEndian.Uint32(s.entry(h)[s.width+1:]) != deadEntry {
			onPage[s.rowPage(h)]++
		}
	}
	kept, rowPages := s.live, s.pages-len(s.ents)
	for cut = len(s.rows) - 1; cut > 0; cut-- {
		kept -= onPage[cut]
		if s.rows[cut] == nil {
			continue // a placeholder page of a multi-page block, or a freed one
		}
		rowPages -= s.rows[cut].Pages()
		entPages := (kept + s.perBlock - 1) / s.perBlock
		if kept > 0 && rowPages+entPages+runs+1 <= allowance {
			return cut, true
		}
	}
	return 0, false
}

// evict gives back the row blocks from page cut on — whose rows the caller
// has written out; none when cut is len(s.rows) — and compacts the entries
// of kept, every row before the cut, in that order (compact). Nothing may be
// added to the store after.
func (s *rowStore) evict(cut int, kept []uint32) {
	for i, b := range s.rows[cut:] {
		if b != nil {
			s.pages -= b.Pages()
			s.disk.PutBlock(b)
			s.rows[cut+i] = nil
		}
	}
	s.rows, s.rowPos = s.rows[:cut], s.blockSize
	s.freeRows, s.nFree = s.freeRows[:0], 0
	s.compact(kept)
}

// scratch recycles the buffers a sort step fills and drops within one call
// — the radix sorter's distribution scratch, keepOnly's entry copy — across
// sorts and queries, as storage's block pool recycles sort memory. Nothing
// is kept on a store between calls, so what a sort holds stays its
// accounted blocks.
type scratch[T any] struct{ pool sync.Pool }

var (
	permScratch  scratch[uint32]
	entryScratch scratch[byte]
)

// get returns a buffer of length n, recycled when the pool has one that
// large.
func (p *scratch[T]) get(n int) *[]T {
	if b, _ := p.pool.Get().(*[]T); b != nil && cap(*b) >= n {
		*b = (*b)[:n]
		return b
	}
	b := make([]T, n)
	return &b
}

// put hands a buffer from get back; the caller must not use it again.
func (p *scratch[T]) put(b *[]T) { p.pool.Put(b) }

// release returns every block. The store is empty and reusable afterwards
// (it keeps its bookkeeping slices, so refilling it allocates nothing);
// releasing twice is harmless.
func (s *rowStore) release() {
	for _, b := range s.rows {
		if b != nil {
			s.disk.PutBlock(b)
		}
	}
	for _, b := range s.ents {
		s.disk.PutBlock(b)
	}
	clear(s.rows)
	clear(s.ents)
	clear(s.entBufs)
	s.rows, s.ents, s.entBufs, s.freeEnts, s.freeRows = s.rows[:0], s.ents[:0], s.entBufs[:0], s.freeEnts[:0], s.freeRows[:0]
	s.rowPos = s.blockSize
	s.appended, s.live, s.pages, s.nFree, s.freed = 0, 0, 0, 0, false
}
