package exec

import (
	"pyro/internal/sortord"
	"pyro/internal/types"
	"pyro/internal/xsort"
)

// Sort is the order-enforcer operator: it wraps the one sort, xsort.MRS (the
// paper's modified replacement selection). With a given order — a prefix of
// the target known to hold on the input — it is the "partial sort enforcer"
// of §3.2; with none it is the full sort, whose oversized input spills by
// standard replacement selection unless a Limit bounds it. The sort takes the
// Config's memory, parallelism and limit unchanged, and spills through
// private storage.SpillArena namespaces (one per oversized segment) created
// from the Config's Disk, so multiple enforcers in one plan never contend on
// temp names or a ledger mutex.
type Sort struct {
	rowView
	child  Operator
	target sortord.Order
	given  sortord.Order
	impl   *xsort.MRS
}

// NewSortSRS builds a full sort, ignoring any order the input may already
// have (what Postgres, SYS1 and SYS2 did in the paper's experiments): the
// sort with nothing given, NewSortMRS over ε.
func NewSortSRS(child Operator, target sortord.Order, cfg xsort.Config) (*Sort, error) {
	return NewSortMRS(child, target, sortord.Empty, cfg)
}

// NewSortMRS builds a sort: given is the order known to hold on the input
// (must be a prefix of target; ε for a full sort). cfg.Limit, when set,
// bounds the sort to its first Limit rows.
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

// Given returns the input order the enforcer exploits (ε for a full sort).
func (s *Sort) Given() sortord.Order { return s.given }

// IsPartial reports whether this is a partial-sort enforcer: one that
// exploits a non-empty given order.
func (s *Sort) IsPartial() bool { return !s.given.IsEmpty() }

// SortStats exposes the underlying sort's work counters.
func (s *Sort) SortStats() *xsort.SortStats { return s.impl.Stats() }

// Spilled reports whether the sort exceeded its memory budget and wrote
// runs (valid once the sort has consumed its input). Harness tables use it
// to annotate which regime — pipelined in-memory or external spill — a
// measurement exercised.
func (s *Sort) Spilled() bool { return s.impl.Stats().RunsGenerated > 0 }

// Open opens the underlying sort, which reads one lookahead row; a full
// sort consumes the rest of its input on the first NextChunk.
func (s *Sort) Open() error { return s.impl.Open() }

// NextChunk fills c with the next rows in target order.
func (s *Sort) NextChunk(c *types.Chunk) error { return s.impl.NextChunk(c) }

// Close releases sort resources and closes the child.
func (s *Sort) Close() error { return s.impl.Close() }
