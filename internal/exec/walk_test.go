package exec

import (
	"testing"

	"pyro/internal/sortord"
	"pyro/internal/storage"
	"pyro/internal/types"
	"pyro/internal/xsort"
)

// TestWalkAndCollectSorts pins the tree-walking hooks the streaming cursor
// relies on: pre-order visitation and plan-position sort collection.
func TestWalkAndCollectSorts(t *testing.T) {
	ls := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "b", Kind: types.KindInt},
	)
	rs := types.NewSchema(
		types.Column{Name: "c", Kind: types.KindInt},
		types.Column{Name: "d", Kind: types.KindInt},
	)
	rows := []types.Tuple{
		types.NewTuple(types.NewInt(2), types.NewInt(1)),
		types.NewTuple(types.NewInt(1), types.NewInt(2)),
	}
	leafL, err := NewValues(ls, rows)
	if err != nil {
		t.Fatal(err)
	}
	leafR, err := NewValues(rs, rows)
	if err != nil {
		t.Fatal(err)
	}
	cfg := xsort.Config{Disk: storage.NewDisk(0), MemoryBlocks: 16}
	sortL, err := NewSortSRS(leafL, sortord.New("a"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sortR, err := NewSortSRS(leafR, sortord.New("c"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mj, err := NewMergeJoin(sortL, sortR, sortord.New("a"), sortord.New("c"), InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	root, err := NewLimit(mj, 10)
	if err != nil {
		t.Fatal(err)
	}

	var visited []Operator
	Walk(root, func(op Operator) { visited = append(visited, op) })
	want := []Operator{root, mj, sortL, leafL, sortR, leafR}
	if len(visited) != len(want) {
		t.Fatalf("Walk visited %d operators, want %d", len(visited), len(want))
	}
	for i := range want {
		if visited[i] != want[i] {
			t.Fatalf("Walk position %d = %T, want %T (pre-order)", i, visited[i], want[i])
		}
	}

	sorts := CollectSorts(root)
	if len(sorts) != 2 || sorts[0] != sortL || sorts[1] != sortR {
		t.Fatalf("CollectSorts = %v, want [left sort, right sort]", sorts)
	}

	// Operators from outside the package are leaves, not a panic.
	if cs := Children(&fakeLeaf{}); cs != nil {
		t.Fatalf("foreign operator should walk as a leaf, got children %v", cs)
	}
}

type fakeLeaf struct{ rowView }

func (*fakeLeaf) Open() error                    { return nil }
func (*fakeLeaf) NextChunk(c *types.Chunk) error { c.Reset(); return nil }
func (*fakeLeaf) Close() error                   { return nil }
func (*fakeLeaf) Schema() *types.Schema          { return types.NewSchema() }
