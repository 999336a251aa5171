package pyro_test

import (
	"context"
	"fmt"
	"log"
	"sync"

	"pyro"
)

// ExampleDatabase_Query streams a Top-K result through the cursor: the
// table is clustered on (day), so ORDER BY (day, kind) plans a pipelined
// partial sort and the first rows are served after reading only the first
// day's segment — closing the cursor early abandons the rest.
func ExampleDatabase_Query() {
	// Sort parallelism 1 keeps reading strictly demand-driven (the paper's
	// serial algorithm), so the segment count below is deterministic.
	db := pyro.Open(pyro.Config{SortMemoryBlocks: 64, SortParallelism: 1})
	var rows [][]any
	for day := 0; day < 30; day++ {
		for e := 0; e < 100; e++ {
			rows = append(rows, []any{int64(day), int64((e * 7) % 10), int64(e)})
		}
	}
	if err := db.CreateTable("events", []pyro.Column{
		{Name: "day", Type: pyro.Int64},
		{Name: "kind", Type: pyro.Int64},
		{Name: "seq", Type: pyro.Int64},
	}, pyro.ClusterOn("day"), rows); err != nil {
		log.Fatal(err)
	}

	plan, err := db.Optimize(db.Scan("events").OrderBy("day", "kind"))
	if err != nil {
		log.Fatal(err)
	}
	cur, err := db.Query(context.Background(), plan)
	if err != nil {
		log.Fatal(err)
	}
	defer cur.Close()

	for i := 0; i < 3 && cur.Next(); i++ {
		var day, kind, seq int64
		if err := cur.Scan(&day, &kind, &seq); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("day=%d kind=%d\n", day, kind)
	}
	if err := cur.Err(); err != nil {
		log.Fatal(err)
	}
	cur.Close()
	st := cur.Stats()
	fmt.Printf("rows=%d of %d, segments sorted=%d of 30\n",
		st.Rows, len(rows), st.Sorts[0].Segments)
	// Output:
	// day=0 kind=0
	// day=0 kind=0
	// day=0 kind=0
	// rows=3 of 3000, segments sorted=1 of 30
}

// ExampleDatabase_concurrent serves many Top-K cursors at once through the
// serving layer: the admission gate bounds how many queries execute
// concurrently, and the sort-memory governor shares one global block pool
// across every live sort — a lone query still gets its full per-sort
// budget, concurrent ones split the pool fairly, and the pool is never
// overcommitted however many cursors race.
func ExampleDatabase_concurrent() {
	db := pyro.Open(pyro.Config{
		SortMemoryBlocks:       8,  // each query asks for 8 blocks...
		GlobalSortMemoryBlocks: 16, // ...from a shared 16-block pool
		MaxConcurrentQueries:   2,  // at most 2 queries execute at once
	})
	rows := make([][]any, 300)
	for i := range rows {
		rows[i] = []any{int64(i), int64((i * 37) % 300)}
	}
	if err := db.CreateTable("scores", []pyro.Column{
		{Name: "id", Type: pyro.Int64},
		{Name: "score", Type: pyro.Int64},
	}, pyro.ClusterOn("id"), rows); err != nil {
		log.Fatal(err)
	}

	// ORDER BY a non-clustered column forces a sort, so every query takes
	// a memory grant. All eight share one cached plan.
	plan, err := db.Optimize(db.Scan("scores").OrderBy("score").Limit(3))
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur, err := db.Query(context.Background(), plan)
			if err != nil {
				log.Fatal(err)
			}
			for cur.Next() {
			}
			if err := cur.Err(); err != nil {
				log.Fatal(err)
			}
			if err := cur.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}
	wg.Wait()

	s := db.ServingStats()
	fmt.Printf("admitted=%d within gate: %v\n",
		s.Admission.Admitted, s.Admission.PeakLive <= 2)
	fmt.Printf("grants=%d pool overcommitted: %v\n",
		s.Governor.Grants, s.Governor.PeakGrantedBlocks > 16)
	// Output:
	// admitted=8 within gate: true
	// grants=8 pool overcommitted: false
}
