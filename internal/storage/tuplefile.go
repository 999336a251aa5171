package storage

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pyro/internal/types"
)

// TupleWriter appends encoded tuples to a file, packing as many tuples per
// page as fit. Page layout: u16 tuple count, then back-to-back encoded
// tuples. A tuple larger than a page is an error (the workloads never
// produce one; erroring beats silent corruption). Page-write failures —
// injected faults, temp-space exhaustion — are sticky: the first one is
// returned from the Write or Close that hit it and from every call after.
//
// The page being filled is staged in a buffer from the block pool, which
// Close hands back; AppendPage copies each full page into the file's own.
type TupleWriter struct {
	file   *File
	stage  *Block // the staging page's pool buffer, nil once closed
	buf    []byte
	count  int
	tuples int64
	starts []int64 // index of the first tuple on each written page
	err    error   // first page-write failure; poisons the writer
}

// tupleHeader is the bytes of a tuple page's u16 tuple count.
const tupleHeader = 2

// TuplesPerPage is how many tuples of sz encoded bytes a TupleWriter packs on
// one pageSize-byte page — never fewer than one. It is reserve's rule in
// closed form, for a caller that sizes tuple files without writing them.
func TuplesPerPage(sz, pageSize int64) int64 {
	return max((pageSize-tupleHeader)/max(sz, 1), 1)
}

// NewTupleWriter starts writing at the end of f.
func NewTupleWriter(f *File) *TupleWriter {
	b := f.disk.pageBlock()
	return &TupleWriter{file: f, stage: b, buf: b.Buf[:tupleHeader]}
}

// PageStarts returns, for each page written so far, the index of its first
// tuple — the directory a clustered lookup needs (valid after Close).
func (w *TupleWriter) PageStarts() []int64 {
	return append([]int64(nil), w.starts...)
}

// Write appends one tuple, flushing a full page as needed.
func (w *TupleWriter) Write(t types.Tuple) error {
	if err := w.reserve(t.EncodedSize()); err != nil {
		return err
	}
	w.buf = t.Encode(w.buf)
	return nil
}

// WriteRaw appends one already encoded tuple — exactly the bytes
// Tuple.Encode produces, as TupleReader.NextRaw returns them. Page packing
// is Write's, so a file copied tuple by tuple through NextRaw/WriteRaw is
// byte- and page-identical to one written from the decoded tuples.
func (w *TupleWriter) WriteRaw(enc []byte) error {
	if err := w.reserve(len(enc)); err != nil {
		return err
	}
	w.buf = append(w.buf, enc...)
	return nil
}

// reserve makes room for one sz-byte tuple on the current page — flushing
// the page if the tuple does not fit — and counts it.
func (w *TupleWriter) reserve(sz int) error {
	if w.err != nil {
		return w.err
	}
	if tupleHeader+sz > w.file.pageSize {
		return fmt.Errorf("storage: tuple of %d bytes exceeds page capacity %d", sz, w.file.pageSize-tupleHeader)
	}
	if len(w.buf)+sz > w.file.pageSize {
		if err := w.flush(); err != nil {
			return err
		}
	}
	w.count++
	w.tuples++
	return nil
}

func (w *TupleWriter) flush() error {
	if w.count == 0 {
		return nil
	}
	binary.BigEndian.PutUint16(w.buf[:tupleHeader], uint16(w.count))
	if _, err := w.file.AppendPage(w.buf); err != nil {
		w.err = err
		return err
	}
	w.starts = append(w.starts, w.tuples-int64(w.count))
	w.buf = w.buf[:tupleHeader]
	w.count = 0
	return nil
}

// errWriterClosed poisons a closed writer: its staging buffer is back in
// the pool.
var errWriterClosed = errors.New("storage: TupleWriter used after Close")

// Close flushes the final partial page and hands the staging buffer back to
// the pool. A non-nil error means the file is missing pages and must not be
// used; the caller owns removing it. The writer must not be used after
// Close: a Write or a second Close returns the first failure, or
// errWriterClosed.
func (w *TupleWriter) Close() error {
	err := w.err
	if err == nil {
		err = w.flush()
	}
	if w.stage != nil {
		blockPool.Put(w.stage)
		w.stage, w.buf = nil, nil
	}
	if w.err == nil {
		w.err = errWriterClosed
	}
	return err
}

// TuplesWritten returns the number of tuples written so far.
func (w *TupleWriter) TuplesWritten() int64 { return w.tuples }

// TupleReader scans a tuple file sequentially, page by page. Each page read
// charges one block read to the disk.
type TupleReader struct {
	file *File
	page int
	data []byte
	pos  int
	left int
}

// NewTupleReader positions a reader at the start of f.
func NewTupleReader(f *File) *TupleReader {
	return &TupleReader{file: f}
}

// fill positions the reader on a page with unread tuples, reading the next
// page (one block read) only when the current one is exhausted; ok=false at
// end of file.
func (r *TupleReader) fill() (bool, error) {
	for r.left == 0 {
		if r.page >= r.file.NumPages() {
			return false, nil
		}
		data, err := r.file.ReadPage(r.page)
		if err != nil {
			return false, err
		}
		r.page++
		if len(data) < tupleHeader {
			return false, fmt.Errorf("storage: malformed page in %q", r.file.Name())
		}
		r.data = data
		r.left = int(binary.BigEndian.Uint16(data[:tupleHeader]))
		r.pos = tupleHeader
	}
	return true, nil
}

// Buffered reports whether the next tuple is on the page the reader holds,
// so reading it reads no page. A chunk producer that must not cross a page
// (see ReadChunk) stops before a read it does not report.
func (r *TupleReader) Buffered() bool { return r.left > 0 }

// Next returns the next tuple, or ok=false at end of file.
func (r *TupleReader) Next() (types.Tuple, bool, error) {
	if ok, err := r.fill(); !ok {
		return nil, false, err
	}
	t, n, err := types.DecodeTuple(r.data[r.pos:])
	if err != nil {
		return nil, false, fmt.Errorf("storage: decoding %q page %d: %w", r.file.Name(), r.page-1, err)
	}
	r.pos += n
	r.left--
	return t, true, nil
}

// NextRaw returns the next tuple as its encoded bytes, undecoded, or
// ok=false at end of file. It reads the same pages at the same moments as
// Next, so the two are interchangeable to the I/O ledger and the fault
// plane. The slice aliases the page buffer: it must not be modified and is
// valid until the next call that crosses a page.
func (r *TupleReader) NextRaw() ([]byte, bool, error) {
	if ok, err := r.fill(); !ok {
		return nil, false, err
	}
	n, err := types.EncodedTupleLen(r.data[r.pos:])
	if err != nil {
		return nil, false, fmt.Errorf("storage: framing %q page %d: %w", r.file.Name(), r.page-1, err)
	}
	enc := r.data[r.pos : r.pos+n : r.pos+n]
	r.pos += n
	r.left--
	return enc, true, nil
}

// ReadChunk decodes tuples from the current page directly into c's column
// vectors and returns the number of rows appended (0 at end of file).
//
// The fill discipline is the batch executor's I/O-identity invariant: a
// chunk never crosses a page boundary. The reader advances to the next
// page only when no tuple of the current one remains — exactly when Next
// would — so a consumer that stops after row j has read precisely the
// pages a reader of one row at a time would have read to serve row j.
func (r *TupleReader) ReadChunk(c *types.Chunk) (int, error) {
	if ok, err := r.fill(); !ok {
		return 0, err
	}
	rows := 0
	for r.left > 0 && !c.Full() {
		n, err := c.AppendEncoded(r.data[r.pos:])
		if err != nil {
			return rows, fmt.Errorf("storage: decoding %q page %d: %w", r.file.Name(), r.page-1, err)
		}
		r.pos += n
		r.left--
		rows++
	}
	return rows, nil
}

// Rewind repositions the reader at the start of the file and charges a seek.
func (r *TupleReader) Rewind() {
	r.page = 0
	r.data = nil
	r.pos = 0
	r.left = 0
	r.file.Seek()
}

// WriteAll writes all tuples to a fresh file and closes the writer.
func WriteAll(f *File, tuples []types.Tuple) error {
	w := NewTupleWriter(f)
	for _, t := range tuples {
		if err := w.Write(t); err != nil {
			return err
		}
	}
	return w.Close()
}

// ReadAll reads every tuple from the file (test/tool helper).
func ReadAll(f *File) ([]types.Tuple, error) {
	r := NewTupleReader(f)
	var out []types.Tuple
	for {
		t, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, t)
	}
}
