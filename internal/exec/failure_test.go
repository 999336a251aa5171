package exec

import (
	"errors"
	"fmt"
	"testing"

	"pyro/internal/expr"
	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
	"pyro/internal/xsort"
)

// faultyOp yields n good tuples and then fails, or fails at Open.
type faultyOp struct {
	rowView
	schema   *types.Schema
	n        int
	failOpen bool
	emitted  int
}

var errInjected = errors.New("injected failure")

func (f *faultyOp) Schema() *types.Schema { return f.schema }
func (f *faultyOp) Open() error {
	f.emitted = 0
	if f.failOpen {
		return errInjected
	}
	return nil
}
func (f *faultyOp) NextChunk(c *types.Chunk) error {
	c.Reset()
	for ; f.emitted < f.n && !c.Full(); f.emitted++ {
		e := int64(f.emitted + 1)
		c.AppendRow(types.NewTuple(types.NewInt(e), types.NewInt(e%3)))
	}
	if c.Rows() == 0 {
		return errInjected
	}
	return nil
}
func (f *faultyOp) Close() error { return nil }

// operatorsUnder builds every unary/binary operator over the given inputs,
// so error-propagation can be asserted uniformly.
func operatorsUnder(t *testing.T, mk func() Operator) []Operator {
	t.Helper()
	d := storage.NewDisk(0)
	xcfg := xsort.Config{Disk: d, MemoryBlocks: 8}
	var ops []Operator

	if f, err := NewFilter(mk(), expr.Compare(expr.GT, expr.Col("a"), expr.IntLit(0))); err == nil {
		ops = append(ops, f)
	} else {
		t.Fatal(err)
	}
	if p, err := NewProjectNames(mk(), []string{"a"}); err == nil {
		ops = append(ops, p)
	} else {
		t.Fatal(err)
	}
	if s, err := NewSortSRS(mk(), sortord.New("a"), xcfg); err == nil {
		ops = append(ops, s)
	} else {
		t.Fatal(err)
	}
	if m, err := NewSortMRS(mk(), sortord.New("a", "b"), sortord.New("a"), xcfg); err == nil {
		ops = append(ops, m)
	} else {
		t.Fatal(err)
	}
	if g, err := NewGroupAggregate(mk(), []string{"b"}, []AggSpec{{Name: "c", Func: AggCount}}); err == nil {
		ops = append(ops, g)
	} else {
		t.Fatal(err)
	}
	if h, err := NewHashAggregate(mk(), []string{"b"}, []AggSpec{{Name: "c", Func: AggCount}}); err == nil {
		ops = append(ops, h)
	} else {
		t.Fatal(err)
	}
	if l, err := NewLimit(mk(), 100); err == nil {
		ops = append(ops, l)
	} else {
		t.Fatal(err)
	}
	// Binary operators: faulty on the left, clean on the right.
	clean := func() Operator {
		v, _ := NewValues(types.NewSchema(
			types.Column{Name: "c", Kind: types.KindInt},
			types.Column{Name: "d", Kind: types.KindInt},
		), []types.Tuple{types.NewTuple(types.NewInt(1), types.NewInt(2))})
		return v
	}
	if mj, err := NewMergeJoin(mk(), clean(), sortord.New("a"), sortord.New("c"), InnerJoin); err == nil {
		ops = append(ops, mj)
	} else {
		t.Fatal(err)
	}
	if hj, err := NewHashJoin(mk(), clean(), []string{"a"}, []string{"c"}, InnerJoin); err == nil {
		ops = append(ops, hj)
	} else {
		t.Fatal(err)
	}
	if nl, err := NewNLJoin(mk(), clean(), nil, InnerJoin, d, 4); err == nil {
		ops = append(ops, nl)
	} else {
		t.Fatal(err)
	}
	if u, err := NewMergeUnion(mk(), mk(), sortord.New("a")); err == nil {
		ops = append(ops, u)
	} else {
		t.Fatal(err)
	}
	if ua, err := NewUnionAll(mk(), mk()); err == nil {
		ops = append(ops, ua)
	} else {
		t.Fatal(err)
	}
	return ops
}

func drainUntilError(op Operator) error {
	if err := op.Open(); err != nil {
		return err
	}
	for {
		_, ok, err := op.Next()
		if err != nil {
			op.Close()
			return err
		}
		if !ok {
			op.Close()
			return nil
		}
	}
}

func TestMidStreamErrorsPropagate(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
	)
	mk := func() Operator { return lend(&faultyOp{schema: schema, n: 5}) }
	for i, op := range operatorsUnder(t, mk) {
		err := drainUntilError(op)
		if !errors.Is(err, errInjected) {
			t.Errorf("operator %d (%T): error not propagated, got %v", i, op, err)
		}
	}
}

func TestOpenErrorsPropagate(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
	)
	mk := func() Operator { return lend(&faultyOp{schema: schema, failOpen: true}) }
	for i, op := range operatorsUnder(t, mk) {
		err := drainUntilError(op)
		if !errors.Is(err, errInjected) {
			t.Errorf("operator %d (%T): open error not propagated, got %v", i, op, err)
		}
	}
}

func TestSortCleanupAfterMidStreamError(t *testing.T) {
	// A sort whose input fails mid-run-generation must not leak run files.
	schema := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
	)
	d := storage.NewDisk(0)
	big := lend(&bigFaulty{schema: schema, n: 50_000})
	s, err := NewSortSRS(big, sortord.New("a"), xsort.Config{Disk: d, MemoryBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := drainUntilError(s); !errors.Is(err, errInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	if files := d.FileNames(); len(files) != 0 {
		t.Fatalf("run files leaked after error: %v", files)
	}
}

// bigFaulty emits enough tuples to force spilling, then fails.
type bigFaulty struct {
	rowView
	schema  *types.Schema
	n       int
	emitted int
}

func (f *bigFaulty) Schema() *types.Schema { return f.schema }
func (f *bigFaulty) Open() error           { f.emitted = 0; return nil }
func (f *bigFaulty) NextChunk(c *types.Chunk) error {
	c.Reset()
	for ; f.emitted < f.n && !c.Full(); f.emitted++ {
		e := int64(f.emitted + 1)
		c.AppendRow(types.NewTuple(types.NewInt(e*7%1000), types.NewInt(e)))
	}
	if c.Rows() == 0 {
		return fmt.Errorf("big: %w", errInjected)
	}
	return nil
}
func (f *bigFaulty) Close() error { return nil }
