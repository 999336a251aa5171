package storage

import (
	"errors"
	"slices"
	"testing"
)

// TestStackedFaultRulesCountEveryTransfer: two rules on one class at At 3
// and At 4 fail exactly the third and the fourth transfer of that class — a
// rule counts every transfer it matches, also one another rule fails — and
// a rule on the same transfer as another fires with it.
func TestStackedFaultRulesCountEveryTransfer(t *testing.T) {
	run := FaultClass{OpWrite, KindRun}
	for _, c := range []struct {
		name   string
		rules  []FaultRule
		failed []int // 1-based transfers that must fail
		fired  int
	}{
		{"3 and 4", []FaultRule{{Class: run, At: 3}, {Class: run, At: 4}}, []int{3, 4}, 2},
		{"4 and 3", []FaultRule{{Class: run, At: 4}, {Class: run, At: 3}}, []int{3, 4}, 2},
		{"both at 3", []FaultRule{{Class: run, At: 3}, {Class: run, At: 3}}, []int{3}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := NewDisk(64)
			plan := NewFaultPlan(c.rules...)
			d.SetFaultPlan(plan)
			f := d.CreateTemp("run", KindRun)
			page := make([]byte, 64)
			var failed []int
			for i := 1; i <= 6; i++ {
				_, err := f.AppendPage(page)
				var fe *FaultError
				switch {
				case err == nil:
				case errors.As(err, &fe) && errors.Is(err, ErrInjectedFault):
					failed = append(failed, i)
				default:
					t.Fatalf("transfer %d: %v", i, err)
				}
			}
			if !slices.Equal(failed, c.failed) {
				t.Errorf("transfers %v failed, want %v", failed, c.failed)
			}
			if plan.Triggered() != c.fired {
				t.Errorf("%d rules fired, want %d", plan.Triggered(), c.fired)
			}
			d.Remove(f.Name())
			AssertNoLeaks(t, d)
		})
	}
}
