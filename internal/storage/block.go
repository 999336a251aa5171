package storage

import "sync"

// Block is one unit of sort memory: a buffer exactly one disk page long
// (or, for a row that does not fit a page, a whole number of pages). The
// sort enforcers buffer rows and sort entries in blocks drawn from the disk
// they spill to, so the M blocks of a memory budget are M page-sized buffers
// on the heap — the same currency as the pages a spill writes.
type Block struct {
	Buf   []byte
	pages int
}

// Pages returns how many pages of memory the block occupies.
func (b *Block) Pages() int { return b.pages }

// blockPool recycles single-page blocks across sorts and queries; it is
// process-wide because sort memory is. Blocks of a page size other than the
// asking disk's (several disks in one process) are dropped on sight.
var blockPool sync.Pool

// GetBlock hands out a block of pages pages of this disk's page size (1
// except for oversized rows). Single-page blocks come from the pool; every
// block must go back through PutBlock, which is what LiveBlocks — and the
// leak check — count.
func (d *Disk) GetBlock(pages int) *Block {
	d.liveBlocks.Add(int64(pages))
	if pages == 1 {
		if b, _ := blockPool.Get().(*Block); b != nil && len(b.Buf) == d.pageSize {
			return b
		}
	}
	return &Block{Buf: make([]byte, pages*d.pageSize), pages: pages}
}

// PutBlock returns a block obtained from GetBlock. The caller must not use
// it again.
func (d *Disk) PutBlock(b *Block) {
	d.liveBlocks.Add(-int64(b.pages))
	if b.pages == 1 {
		blockPool.Put(b)
	}
}

// LiveBlocks returns the pages of sort memory handed out and not yet
// returned. A closed sort — drained, abandoned, aborted or failed — must
// leave this at zero for its disk.
func (d *Disk) LiveBlocks() int64 { return d.liveBlocks.Load() }
