package govern

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pyro/internal/storage"
)

// spillingTap returns a tap whose ledger already shows run-page writes —
// the signal the governor reads as "this query is spilling".
func spillingTap(t *testing.T) *storage.Tap {
	t.Helper()
	d := storage.NewDisk(4096)
	tap := storage.NewTap()
	a := d.NewArenaTapped(tap)
	t.Cleanup(a.Release)
	if _, err := a.CreateTemp("run", storage.KindRun).AppendPage([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if tap.Stats().RunPageWrites == 0 {
		t.Fatal("tap shows no run-page writes after writing a run page")
	}
	return tap
}

func TestLoneQueryGetsFullAsk(t *testing.T) {
	g, err := New(Config{TotalBlocks: 1000})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := g.Acquire(1000, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Blocks() != 1000 {
		t.Fatalf("lone query granted %d blocks, want the full 1000", gr.Blocks())
	}
	if gr.Waited() != 0 || gr.Waits() != 0 {
		t.Fatalf("lone query waited (%v, %d waits), want immediate grant", gr.Waited(), gr.Waits())
	}
	gr.Release()
	if s := g.Stats(); s.GrantedBlocks != 0 || s.LiveGrants != 0 {
		t.Fatalf("after release: %+v, want empty pool", s)
	}
}

func TestAskClampedToPool(t *testing.T) {
	g, _ := New(Config{TotalBlocks: 100})
	gr, err := g.Acquire(5000, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer gr.Release()
	if gr.Blocks() != 100 {
		t.Fatalf("granted %d, want pool-clamped 100", gr.Blocks())
	}
}

func TestConcurrentGrantsNeverOvercommit(t *testing.T) {
	const total = 64
	g, _ := New(Config{TotalBlocks: total})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				gr, err := g.Acquire(total, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				gr.Release()
			}
		}()
	}
	wg.Wait()
	s := g.Stats()
	if s.PeakGrantedBlocks > total {
		t.Fatalf("peak granted %d blocks exceeds the %d-block pool", s.PeakGrantedBlocks, total)
	}
	if s.GrantedBlocks != 0 || s.LiveGrants != 0 {
		t.Fatalf("pool not empty after all releases: %+v", s)
	}
	if s.Grants != 32*50 {
		t.Fatalf("recorded %d grants, want %d", s.Grants, 32*50)
	}
}

// fullPool returns a 2-block pool held by two grants of one block each:
// every claimant is at the minimum grant, so a third Acquire must wait.
func fullPool(t *testing.T) (*Governor, []*Grant) {
	t.Helper()
	g, _ := New(Config{TotalBlocks: 2})
	held := holdAsks(t, g, []int{2, 2})
	if s := g.Stats(); s.GrantedBlocks != 2 || held[0].Blocks() != 1 || held[1].Blocks() != 1 {
		t.Fatalf("pool not split 1/1 between two holders: %+v", s)
	}
	return g, held
}

// waitUntil yields until cond holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for start := time.Now(); !cond(); runtime.Gosched() {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func TestReleaseUnblocksWaiter(t *testing.T) {
	g, held := fullPool(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := make(chan *Grant, 1)
	go func() {
		gr, err := g.Acquire(2, nil, ctx)
		if err != nil {
			t.Error(err)
		}
		got <- gr
	}()
	waitUntil(t, "the third Acquire waits", func() bool { return g.Stats().GrantWaits == 1 })
	select {
	case <-got:
		t.Fatal("third acquire succeeded while the pool was exhausted")
	default:
	}
	held[0].Release()
	select {
	case gr := <-got:
		if gr.Blocks() == 0 {
			t.Fatal("woken waiter got an empty grant")
		}
		if gr.Waits() != 1 || gr.Waited() == 0 {
			t.Fatalf("woken waiter reports waits=%d waited=%v, want a recorded wait", gr.Waits(), gr.Waited())
		}
		gr.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not woken by release")
	}
	held[1].Release()
}

func TestAbortReachesBlockedAcquire(t *testing.T) {
	g, held := fullPool(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Acquire(2, nil, ctx)
		done <- err
	}()
	waitUntil(t, "the third Acquire waits", func() bool { return g.Stats().GrantWaits == 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked acquire returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not reach the blocked acquire")
	}
	if s := g.Stats(); s.GrantedBlocks != 2 || s.LiveGrants != 2 {
		t.Fatalf("cancelled waiter disturbed the pool: %+v", s)
	}
	for _, gr := range held {
		gr.Release()
	}
}

func TestSpillPressureShrinksHoarder(t *testing.T) {
	g, _ := New(Config{TotalBlocks: 100})
	// The first query takes the whole pool and is spilling.
	big, err := g.Acquire(100, spillingTap(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if big.Blocks() != 100 {
		t.Fatalf("first grant %d, want 100", big.Blocks())
	}
	// A second query arrives: reclaim must shrink the spilling holder to
	// the fair share instead of blocking behind it.
	small, err := g.Acquire(100, nil, cancelled())
	if err != nil {
		t.Fatal(err)
	}
	defer small.Release()
	if big.Blocks() > 50 {
		t.Fatalf("spilling hoarder still holds %d blocks, want <= fair share 50", big.Blocks())
	}
	if small.Blocks() == 0 {
		t.Fatal("second query got nothing despite reclaim")
	}
	s := g.Stats()
	if s.Shrinks == 0 || s.ReclaimedBlocks == 0 {
		t.Fatalf("no reclaim recorded: %+v", s)
	}
	big.Release()
}

// refLevel is progressive filling done the textbook way, independently of
// levelLocked: the asks in ascending order each take their ask while it is
// no more than an equal split of what is left, and the first that is not
// sets the level. With every ask served the level is the whole pool.
func refLevel(total int, asks []int) int {
	sorted := slices.Sorted(slices.Values(asks))
	left := total
	for i, a := range sorted {
		share := left / (len(sorted) - i)
		if a > share {
			return share
		}
		left -= a
	}
	return total
}

// holdAsks acquires each ask in turn on g and returns the grants.
func holdAsks(t *testing.T, g *Governor, asks []int) []*Grant {
	t.Helper()
	var held []*Grant
	for _, a := range asks {
		gr, err := g.Acquire(a, nil, cancelled())
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, gr)
	}
	return held
}

// cancelled is an already-cancelled context. Acquire and Enter consult
// their context only when they must wait, so under it a call that would
// wait fails with context.Canceled and one that need not wait succeeds.
func cancelled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestWaterLevelGrants: the newcomer's grant and every holder's size after
// it arrives are min(ask, level) for the max-min fair level of the pool. A
// small holder leaves the rest of the pool to a large newcomer; two large
// asks split it; a blocked Acquire claims the whole pool.
func TestWaterLevelGrants(t *testing.T) {
	cases := []struct {
		name    string
		held    []int // asks acquired first, in order
		waiters int   // Acquire calls blocked while the newcomer arrives
		want    int   // the newcomer's ask
		blocks  []int // the holders' sizes, then the newcomer's grant
	}{
		{"small holder", []int{2}, 0, 16, []int{2, 14}},
		{"three-block holder", []int{3}, 0, 16, []int{3, 13}},
		{"equal asks", []int{16}, 0, 16, []int{8, 8}},
		{"small newcomer", []int{16}, 0, 2, []int{14, 2}},
		{"all fit", []int{4, 5}, 0, 7, []int{4, 5, 7}},
		{"three-way", []int{2, 16}, 0, 16, []int{2, 7, 7}},
		{"with a waiter", []int{2}, 1, 16, []int{2, 7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, _ := New(Config{TotalBlocks: 16})
			held := holdAsks(t, g, c.held)
			g.mu.Lock()
			g.waiters = c.waiters
			g.mu.Unlock()
			if got, want := g.ExpectedGrant(c.want), c.blocks[len(c.blocks)-1]; got != want {
				t.Errorf("ExpectedGrant(%d) = %d, want %d", c.want, got, want)
			}
			held = append(held, holdAsks(t, g, []int{c.want})...)
			for i, gr := range held {
				if gr.Blocks() != c.blocks[i] {
					t.Errorf("grant %d (ask %d) holds %d blocks, want %d", i, gr.want, gr.Blocks(), c.blocks[i])
				}
			}
			if s := g.Stats(); s.GrantedBlocks > 16 || s.PeakGrantedBlocks > 16 {
				t.Errorf("pool overcommitted: %+v", s)
			}
			g.mu.Lock()
			g.waiters = 0
			g.mu.Unlock()
			for _, gr := range held {
				gr.Release()
			}
		})
	}
}

// TestHolderAboveLevelShrunkOnArrival: a newcomer whose share is not free
// shrinks every holder above the level to it, whether the holder's sorts
// spill or run in memory — the holder's size came from arriving first, not
// from its share.
func TestHolderAboveLevelShrunkOnArrival(t *testing.T) {
	for _, spilling := range []bool{false, true} {
		g, _ := New(Config{TotalBlocks: 100})
		tap := storage.NewTap()
		if spilling {
			tap = spillingTap(t)
		}
		holder, err := g.Acquire(100, tap, nil)
		if err != nil {
			t.Fatal(err)
		}
		small := holdAsks(t, g, []int{30})[0]
		if holder.Blocks() != 70 || small.Blocks() != 30 {
			t.Fatalf("spilling=%v: holder %d, newcomer %d; want 70 and 30", spilling, holder.Blocks(), small.Blocks())
		}
		if s := g.Stats(); s.Shrinks != 1 || s.ReclaimedBlocks != 30 {
			t.Fatalf("spilling=%v: reclaim recorded as %+v, want one shrink of 30 blocks", spilling, s)
		}
		small.Release()
		holder.Release()
	}
}

// TestRandomScheduleGrantsAtLevel drives seeded random schedules of
// acquires and releases. At every issue the grant is min(want, level) for
// the level progressive filling computes over the live asks and the
// newcomer's, ExpectedGrant predicted exactly that, and the pool is never
// overcommitted.
func TestRandomScheduleGrantsAtLevel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		total := 1 + rng.Intn(64)
		g, _ := New(Config{TotalBlocks: total})
		var held []*Grant
		for step := 0; step < 400; step++ {
			if len(held) > 0 && (len(held) == total || rng.Intn(3) == 0) {
				i := rng.Intn(len(held))
				held[i].Release()
				held = slices.Delete(held, i, i+1)
			} else {
				want := 1 + rng.Intn(total+total/4)
				asks := []int{min(want, total)}
				for _, gr := range held {
					asks = append(asks, gr.want)
				}
				level := refLevel(total, asks)
				expect := g.ExpectedGrant(want)
				gr := holdAsks(t, g, []int{want})[0]
				if gr.Initial() != expect || gr.Initial() != min(want, level) {
					t.Fatalf("seed %d step %d: ask %d granted %d, ExpectedGrant said %d, min(want, level %d) is %d",
						seed, step, want, gr.Initial(), expect, level, min(want, level))
				}
				held = append(held, gr)
			}
			if s := g.Stats(); s.GrantedBlocks > total {
				t.Fatalf("seed %d step %d: %d of %d blocks granted", seed, step, s.GrantedBlocks, total)
			}
		}
		for _, gr := range held {
			gr.Release()
		}
		if s := g.Stats(); s.PeakGrantedBlocks > total || s.GrantedBlocks != 0 {
			t.Fatalf("seed %d: %+v", seed, s)
		}
	}
}

// TestLevelAllocatesNothing: the water level is computed in place over the
// live grants, however many there are.
func TestLevelAllocatesNothing(t *testing.T) {
	g, _ := New(Config{TotalBlocks: 64})
	for _, a := range []int{3, 64, 10, 64, 1} {
		if _, err := g.Acquire(a, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { g.ExpectedGrant(64) }); n != 0 {
		t.Fatalf("ExpectedGrant allocated %v times per call", n)
	}
}

// FuzzGovernorLevel holds the water level to its definition on arbitrary
// claimant sets: the claimants' shares min(ask, level) fit the pool, every
// claimant short of its ask holds at least as much as any other (so its
// share can rise only by lowering one no larger), and the blocks left over
// are fewer than the claimants at the level (so the level cannot rise).
// It then acquires the same asks in turn and checks each grant is
// min(want, level) with the pool never overcommitted.
func FuzzGovernorLevel(f *testing.F) {
	f.Add(uint8(16), uint8(0), []byte{2, 16})
	f.Add(uint8(16), uint8(0), []byte{16, 16, 16})
	f.Add(uint8(16), uint8(1), []byte{2, 16})
	f.Add(uint8(7), uint8(2), []byte{1, 1, 9})
	f.Fuzz(func(t *testing.T, poolByte, waiterByte uint8, askBytes []byte) {
		total := 1 + int(poolByte)%128
		var asks []int
		for _, b := range askBytes {
			asks = append(asks, min(1+int(b), total))
		}
		waiters := int(waiterByte) % 4
		if n := total - waiters; len(asks) > n {
			asks = asks[:max(n, 0)]
		}
		if len(asks) == 0 {
			return
		}

		g, _ := New(Config{TotalBlocks: total})
		for _, a := range asks[:len(asks)-1] {
			g.grants = append(g.grants, &Grant{g: g, want: a})
		}
		g.waiters = waiters
		level := g.levelLocked(asks[len(asks)-1])
		claims := slices.Clone(asks)
		for range waiters {
			claims = append(claims, total)
		}
		sum, atLevel, top := 0, 0, 0
		for _, a := range claims {
			sum += min(a, level)
			top = max(top, min(a, level))
			if a > level {
				atLevel++
			}
		}
		if sum > total {
			t.Fatalf("pool %d, claims %v: level %d assigns %d blocks", total, claims, level, sum)
		}
		if atLevel > 0 && (top != level || total-sum >= atLevel) {
			t.Fatalf("pool %d, claims %v: level %d is not max-min fair (%d left over, %d claimants at the level)",
				total, claims, level, total-sum, atLevel)
		}
		if ref := refLevel(total, claims); level != ref {
			t.Fatalf("pool %d, claims %v: level %d, progressive filling gives %d", total, claims, level, ref)
		}

		g, _ = New(Config{TotalBlocks: total})
		var live []int
		for _, a := range asks {
			gr, err := g.Acquire(a, nil, cancelled())
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, a)
			if want := min(a, refLevel(total, live)); gr.Initial() != want {
				t.Fatalf("pool %d, asks %v: last grant %d, want %d", total, live, gr.Initial(), want)
			}
			if s := g.Stats(); s.GrantedBlocks > total {
				t.Fatalf("pool %d, asks %v: %d blocks granted", total, live, s.GrantedBlocks)
			}
		}
	})
}

func TestReleaseIdempotent(t *testing.T) {
	g, _ := New(Config{TotalBlocks: 10})
	gr, err := g.Acquire(10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gr.Release()
	gr.Release()
	if s := g.Stats(); s.GrantedBlocks != 0 {
		t.Fatalf("double release corrupted the pool: %+v", s)
	}
	gr2, err := g.Acquire(10, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gr2.Blocks() != 10 {
		t.Fatalf("pool lost blocks to double release: got %d", gr2.Blocks())
	}
	gr2.Release()
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{TotalBlocks: 0}); err == nil {
		t.Fatal("New accepted a zero pool")
	}
	if _, err := NewGate(0, 0); err == nil {
		t.Fatal("NewGate accepted max 0")
	}
}

func TestGateBoundsConcurrency(t *testing.T) {
	const max = 4
	gt, err := NewGate(max, 0)
	if err != nil {
		t.Fatal(err)
	}
	var live, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := gt.Enter(nil); err != nil {
				t.Error(err)
				return
			}
			n := live.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			live.Add(-1)
			gt.Leave()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > max {
		t.Fatalf("observed %d concurrent holders, gate max is %d", p, max)
	}
	s := gt.Stats()
	if s.Admitted != 64 {
		t.Fatalf("admitted %d, want 64", s.Admitted)
	}
	if s.PeakLive > max {
		t.Fatalf("gate recorded peak %d above max %d", s.PeakLive, max)
	}
	if s.Waits == 0 {
		t.Fatal("64 callers through a 4-slot gate recorded no queue waits")
	}
	if s.Live != 0 || s.Queued != 0 {
		t.Fatalf("gate not drained: %+v", s)
	}
}

func TestGateAbortWhileQueued(t *testing.T) {
	gt, _ := NewGate(1, 0)
	if _, err := gt.Enter(nil); err != nil {
		t.Fatal(err)
	}
	before := gt.Stats()
	if _, err := gt.Enter(cancelled()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued Enter returned %v, want context.Canceled", err)
	}
	if s := gt.Stats(); s.Live != before.Live || s.Queued != before.Queued || s.Admitted != before.Admitted {
		t.Fatalf("cancelled Enter changed the gate: %+v, was %+v", s, before)
	}
	gt.Leave()
	if s := gt.Stats(); s.Live != 0 {
		t.Fatalf("gate corrupted after aborted wait: %+v", s)
	}
}

// parkedIn reports how many goroutines are parked in a select inside fn:
// blocked on its channels, not merely on their way there.
func parkedIn(fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, " [select") && strings.Contains(g, fn) {
			n++
		}
	}
	return n
}

// TestGateAdmitsInArrivalOrder: with the one slot held, A queues and then
// B; a Leave hands the slot to A, and B stays queued until A leaves. Queued
// counts a caller just before it blocks on the channel, so B starts only
// once A is parked there.
func TestGateAdmitsInArrivalOrder(t *testing.T) {
	gt, _ := NewGate(1, 0)
	if _, err := gt.Enter(nil); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan string, 2)
	for i, name := range []string{"A", "B"} {
		go func() {
			if _, err := gt.Enter(context.Background()); err != nil {
				t.Error(err)
			}
			admitted <- name
		}()
		waitUntil(t, name+" queues", func() bool { return parkedIn("(*Gate).Enter") == i+1 })
	}
	gt.Leave()
	if first := <-admitted; first != "A" {
		t.Fatalf("Leave admitted %s ahead of A, which queued first", first)
	}
	if s := gt.Stats(); s.Live != 1 || s.Queued != 1 {
		t.Fatalf("after one Leave: %+v, want A live and B queued", s)
	}
	select {
	case name := <-admitted:
		t.Fatalf("%s admitted while A holds the one slot", name)
	default:
	}
	gt.Leave()
	if second := <-admitted; second != "B" {
		t.Fatalf("second admission %s, want B", second)
	}
	gt.Leave()
	if s := gt.Stats(); s.Live != 0 || s.Queued != 0 || s.Admitted != 3 || s.Waits != 2 {
		t.Fatalf("gate not drained: %+v", s)
	}
}

// TestGateAndGrantWaitOnNilContext: a nil context is a wait no cancellation
// ends — Enter waits for a Leave and Acquire for a Release, the form the
// benchmark's serving probes call.
func TestGateAndGrantWaitOnNilContext(t *testing.T) {
	t.Run("Enter", func(t *testing.T) {
		gt, _ := NewGate(1, 0)
		if _, err := gt.Enter(nil); err != nil {
			t.Fatal(err)
		}
		got := make(chan error, 1)
		go func() {
			_, err := gt.Enter(nil)
			got <- err
		}()
		waitUntil(t, "Enter queues", func() bool { return gt.Stats().Queued == 1 })
		select {
		case err := <-got:
			t.Fatalf("Enter returned %v while the slot was held", err)
		default:
		}
		gt.Leave()
		if err := <-got; err != nil {
			t.Fatal(err)
		}
		gt.Leave()
	})
	t.Run("Acquire", func(t *testing.T) {
		g, held := fullPool(t)
		got := make(chan error, 1)
		go func() {
			gr, err := g.Acquire(2, nil, nil)
			if err == nil {
				gr.Release()
			}
			got <- err
		}()
		waitUntil(t, "Acquire waits", func() bool { return g.Stats().GrantWaits == 1 })
		select {
		case err := <-got:
			t.Fatalf("Acquire returned %v while the pool was full", err)
		default:
		}
		held[0].Release()
		if err := <-got; err != nil {
			t.Fatal(err)
		}
		held[1].Release()
	})
}
