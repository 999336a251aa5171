package storage

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
)

// ErrInjectedFault is the default error a FaultRule fires with. Tests match
// it with errors.Is through whatever wrapping the upper layers add.
var ErrInjectedFault = errors.New("storage: injected fault")

// ErrNoTempSpace is the ENOSPC analogue: a run-page write was refused
// because the disk's temp-space quota is exhausted. Unlike injected faults
// it also fires in "real" operation whenever SetTempQuotaPages is in effect.
var ErrNoTempSpace = errors.New("storage: temp space exhausted")

// FaultOp distinguishes the two page-transfer directions a fault can hit.
type FaultOp uint8

const (
	// OpRead is a page read (File.ReadPage).
	OpRead FaultOp = iota
	// OpWrite is a page write (File.AppendPage).
	OpWrite
)

func (o FaultOp) String() string {
	if o == OpRead {
		return "read"
	}
	return "write"
}

// FaultClass identifies one class of page transfers: direction × file kind.
// Together with a 1-based ordinal this addresses a single page transfer of a
// run, which is what makes fault schedules reproducible and sweepable.
type FaultClass struct {
	Op   FaultOp
	Kind FileKind
}

func (c FaultClass) String() string {
	kind := "data"
	if c.Kind == KindRun {
		kind = "run"
	}
	return c.Op.String() + "/" + kind
}

// FaultClasses enumerates every trigger class in canonical sweep order.
var FaultClasses = []FaultClass{
	{OpRead, KindData},
	{OpWrite, KindData},
	{OpRead, KindRun},
	{OpWrite, KindRun},
}

// FaultRule describes one injected failure: the At'th transfer (1-based)
// matching Class — optionally narrowed to files whose name starts with
// NamePrefix, which distinguishes table from index pages — fails. Each rule
// fires at most once, so a query re-run against the same installed plan sees
// a healthy device; At <= 0 means the first match.
//
// Err overrides the returned error (nil uses ErrInjectedFault). Panic makes
// the storage layer panic at the fault point instead of returning an error —
// modelling a library bug at an exact, reproducible location so tests can
// prove panic containment at the worker and cursor boundaries.
type FaultRule struct {
	Class      FaultClass
	NamePrefix string
	At         int64
	Err        error
	Panic      bool
}

// faultRule is the live counterpart of FaultRule with its trigger state.
type faultRule struct {
	FaultRule
	seen  atomic.Int64
	fired atomic.Bool
}

// FaultPlan is a deterministic fault schedule installed on a Disk with
// SetFaultPlan. It observes every page transfer (counted per FaultClass,
// which is how sweeps enumerate fault points) and fails the transfers its
// rules address. A plan with no rules is a pure observer: the page traffic
// it sees is byte-identical to an uninstrumented run.
type FaultPlan struct {
	rules  []*faultRule
	counts [2][2]atomic.Int64 // [FaultOp][FileKind] transfer observations
}

// NewFaultPlan builds a plan from the given rules.
func NewFaultPlan(rules ...FaultRule) *FaultPlan {
	p := &FaultPlan{}
	for _, r := range rules {
		if r.At <= 0 {
			r.At = 1
		}
		p.rules = append(p.rules, &faultRule{FaultRule: r})
	}
	return p
}

// Count returns how many transfers of the class the plan has observed.
func (p *FaultPlan) Count(c FaultClass) int64 {
	return p.counts[c.Op][c.Kind].Load()
}

// Counts snapshots the observation counters for every fault class.
func (p *FaultPlan) Counts() map[FaultClass]int64 {
	out := make(map[FaultClass]int64, len(FaultClasses))
	for _, c := range FaultClasses {
		out[c] = p.Count(c)
	}
	return out
}

// Triggered returns how many rules have fired.
func (p *FaultPlan) Triggered() int {
	n := 0
	for _, r := range p.rules {
		if r.fired.Load() {
			n++
		}
	}
	return n
}

// check observes one transfer and returns the fault to inject, if any.
func (p *FaultPlan) check(op FaultOp, kind FileKind, name string) *FaultError {
	p.counts[op][kind].Add(1)
	for _, r := range p.rules {
		if r.Class.Op != op || r.Class.Kind != kind {
			continue
		}
		if r.NamePrefix != "" && !strings.HasPrefix(name, r.NamePrefix) {
			continue
		}
		n := r.seen.Add(1)
		if n == r.At && r.fired.CompareAndSwap(false, true) {
			return &FaultError{Class: r.Class, Name: name, Seq: n, Panic: r.Panic, err: r.Err}
		}
	}
	return nil
}

// FaultError reports an injected fault with the exact transfer it hit, so a
// failing sweep point names itself in the test log.
type FaultError struct {
	Class FaultClass
	Name  string
	Seq   int64
	Panic bool
	err   error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("injected fault at %s #%d (%s): %v", e.Class, e.Seq, e.Name, e.Unwrap())
}

func (e *FaultError) Unwrap() error {
	if e.err != nil {
		return e.err
	}
	return ErrInjectedFault
}

// SetFaultPlan installs (or, with nil, removes) the disk's fault plan. The
// plan applies to every file and arena on the disk, including files opened
// before installation. Zero-fault executions with no plan installed pay one
// atomic pointer load per page transfer and behave identically.
func (d *Disk) SetFaultPlan(p *FaultPlan) {
	d.fault.Store(&faultSlot{plan: p})
}

// FaultPlan returns the currently installed plan (nil when none).
func (d *Disk) FaultPlan() *FaultPlan {
	if s := d.fault.Load(); s != nil {
		return s.plan
	}
	return nil
}

// faultSlot wraps the plan pointer so SetFaultPlan(nil) can be stored.
type faultSlot struct {
	plan *FaultPlan
}

// SetTempQuotaPages bounds the live run pages (global temp files plus every
// arena's) the disk will hold; a run-page write that would exceed it fails
// with ErrNoTempSpace. n <= 0 removes the quota. The check walks the file
// registry under the mutex, so it is priced for fault testing, not for the
// (quota-less) production path, which pays one atomic load.
func (d *Disk) SetTempQuotaPages(n int64) {
	d.tempQuota.Store(n)
}

// checkTempQuota admits or refuses one run-page write under the quota.
func (d *Disk) checkTempQuota() error {
	q := d.tempQuota.Load()
	if q <= 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	live := 0
	for _, f := range d.files {
		if f.kind == KindRun {
			live += f.NumPages()
		}
	}
	for _, a := range d.arenas {
		live += a.totalPages()
	}
	if int64(live) >= q {
		return fmt.Errorf("storage: run page write with %d live temp pages at quota %d: %w", live, q, ErrNoTempSpace)
	}
	return nil
}

// faultCheck consults the disk's fault plan for one transfer on f. Panic
// rules panic here — at the exact storage call site — so containment is
// tested where a real library bug would surface.
func (f *File) faultCheck(op FaultOp) error {
	s := f.disk.fault.Load()
	if s == nil || s.plan == nil {
		return nil
	}
	fe := s.plan.check(op, f.kind, f.name)
	if fe == nil {
		return nil
	}
	if fe.Panic {
		panic(fe)
	}
	return fe
}
