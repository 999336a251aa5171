package exec

import (
	"pyro/internal/iter"
	"pyro/internal/sortord"
	"pyro/internal/types"
	"pyro/internal/xsort"
)

// sorter is the common surface of the xsort operators the enforcer wraps.
// Construction is arena-aware: both implementations spill through private
// storage.SpillArena namespaces (per sort for SRS, per oversized segment
// for MRS) created from the Config's Disk, so multiple enforcers in one
// plan never contend on temp names or a ledger mutex.
type sorter interface {
	iter.Iterator
	Stats() *xsort.SortStats
}

// Sort is the order-enforcer operator. It wraps either SRS (standard
// replacement selection, used when nothing is known about the input order)
// or MRS (the paper's modified replacement selection, used when the input
// is known to carry a prefix of the target order — the "partial sort
// enforcer" of §3.2). The wrapped sort takes the Config's memory and
// parallelism knobs unchanged.
type Sort struct {
	rowView
	child  Operator
	target sortord.Order
	given  sortord.Order
	impl   sorter
}

// NewSortSRS builds a full sort using standard replacement selection,
// ignoring any order the input may already have (what Postgres, SYS1 and
// SYS2 did in the paper's experiments).
func NewSortSRS(child Operator, target sortord.Order, cfg xsort.Config) (*Sort, error) {
	s, err := xsort.NewSRS(child, child.Schema(), target, cfg)
	if err != nil {
		return nil, err
	}
	return lend(&Sort{child: child, target: target.Clone(), given: sortord.Empty, impl: s}), nil
}

// NewSortMRS builds a partial sort: given is the order known to hold on the
// input (must be a prefix of target). An empty given with cfg.Limit set is
// the bounded full sort: one segment, kept down to the Limit's rows.
func NewSortMRS(child Operator, target, given sortord.Order, cfg xsort.Config) (*Sort, error) {
	m, err := xsort.NewMRS(child, child.Schema(), target, given, cfg)
	if err != nil {
		return nil, err
	}
	return lend(&Sort{child: child, target: target.Clone(), given: given.Clone(), impl: m}), nil
}

// Schema returns the child schema (sorting is schema-preserving).
func (s *Sort) Schema() *types.Schema { return s.child.Schema() }

// Children returns the sorted input.
func (s *Sort) Children() []Operator { return []Operator{s.child} }

// Target returns the produced sort order.
func (s *Sort) Target() sortord.Order { return s.target }

// Given returns the input order the enforcer exploits (ε for SRS).
func (s *Sort) Given() sortord.Order { return s.given }

// IsPartial reports whether this is a partial-sort enforcer: only
// NewSortMRS records a non-empty given order.
func (s *Sort) IsPartial() bool { return !s.given.IsEmpty() }

// SortStats exposes the underlying sort's work counters.
func (s *Sort) SortStats() *xsort.SortStats { return s.impl.Stats() }

// Spilled reports whether the sort exceeded its memory budget and wrote
// runs (valid once the sort has consumed its input). Harness tables use it
// to annotate which regime — pipelined in-memory or external spill — a
// measurement exercised.
func (s *Sort) Spilled() bool { return s.impl.Stats().RunsGenerated > 0 }

// Open opens the underlying sort (for SRS this consumes the whole input).
func (s *Sort) Open() error { return s.impl.Open() }

// NextChunk fills c with the next rows in target order.
func (s *Sort) NextChunk(c *types.Chunk) error { return s.impl.NextChunk(c) }

// Close releases sort resources and closes the child.
func (s *Sort) Close() error { return s.impl.Close() }
