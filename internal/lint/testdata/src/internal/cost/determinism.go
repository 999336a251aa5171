// Package cost exercises the determinism analyzer. The fixture lives at
// the scoped import-path suffix internal/cost, where wall-clock,
// randomness and map iteration order must not feed the pinned work
// counters or plan choice.
package cost

import (
	"sort"
	"time"

	_ "math/rand" // want `import of math/rand in a determinism-scoped package`
)

// rankByClock feeds wall-clock into a decision.
func rankByClock() int64 {
	return time.Now().UnixNano() // want `time\.Now in a determinism-scoped package`
}

// elapsed measures inside the scoped package.
func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since in a determinism-scoped package`
}

// totalUnordered folds a map in iteration order. Summation happens to be
// commutative, but the analyzer cannot know that; the annotated or sorted
// shapes below are the accepted spellings.
func totalUnordered(costs map[string]float64) float64 {
	var total float64
	for _, c := range costs { // want `map iteration order is nondeterministic`
		total += c
	}
	return total
}

// totalSorted is the clean shape: collect keys under an annotation (the
// collection loop is order-insensitive because the keys are sorted before
// any order-sensitive use), then range the sorted slice.
func totalSorted(costs map[string]float64) float64 {
	keys := make([]string, 0, len(costs))
	//pyro:unordered(keys are sorted before any order-sensitive use)
	for k := range costs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total float64
	for _, k := range keys {
		total += costs[k]
	}
	return total
}
