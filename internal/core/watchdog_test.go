package core

import (
	"errors"
	"strings"
	"testing"

	"localbp/internal/bpu"
	"localbp/internal/bpu/tage"
	"localbp/internal/trace"
)

// watchdogProgram is a short all-ALU program; any sane core retires it.
func watchdogProgram(n int) []trace.Inst {
	tr := make([]trace.Inst, n)
	for i := range tr {
		tr[i] = trace.Inst{PC: 0x1000 + uint64(4*i), Class: trace.ClassALU}
	}
	return tr
}

func watchdogCore(cfg Config, n int) *Core {
	return New(cfg, bpu.NewUnit(tage.KB8(), nil), watchdogProgram(n))
}

func TestRunCheckedCompletesNormally(t *testing.T) {
	st, err := watchdogCore(DefaultConfig(), 5_000).RunChecked()
	if err != nil {
		t.Fatalf("clean run errored: %v", err)
	}
	if st.Insts != 5_000 {
		t.Fatalf("retired %d instructions, want 5000", st.Insts)
	}
}

func TestWatchdogNoRetireDeadman(t *testing.T) {
	cfg := DefaultConfig()
	// The first retirement cannot happen before the front-end depth plus
	// execution latency; a deadman shorter than that must fire.
	cfg.FrontendDepth = 50
	cfg.StallCycles = 10
	_, err := watchdogCore(cfg, 1_000).RunChecked()
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err %T is not a *StallError", err)
	}
	if !strings.Contains(se.Reason, "deadman") {
		t.Fatalf("reason %q does not name the deadman", se.Reason)
	}
	for _, want := range []string{"rob:", "fetch:", "program:", "stats:"} {
		if !strings.Contains(se.Dump, want) {
			t.Fatalf("pipeline dump missing %q:\n%s", want, se.Dump)
		}
	}
}

func TestWatchdogCycleBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 100 // far below what 10k instructions need
	_, err := watchdogCore(cfg, 10_000).RunChecked()
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	var se *StallError
	if !errors.As(err, &se) || !strings.Contains(se.Reason, "budget") {
		t.Fatalf("err %v does not report the cycle budget", err)
	}
	if se.Cycle < 100 {
		t.Fatalf("watchdog fired at cycle %d, before the budget of 100", se.Cycle)
	}
}

func TestRunPanicsOnStall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 100
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("Run did not panic on a watchdog trip")
		}
		err, ok := p.(error)
		if !ok || !errors.Is(err, ErrStalled) {
			t.Fatalf("Run panicked with %v, want an ErrStalled-wrapping error", p)
		}
	}()
	watchdogCore(cfg, 10_000).Run()
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}

	var zero Config
	err := zero.Validate()
	if err == nil {
		t.Fatal("zero config validated")
	}
	for _, field := range []string{"Width", "ROBSize", "AllocQueue", "LatALU"} {
		if !strings.Contains(err.Error(), field) {
			t.Errorf("zero-config error does not name %s: %v", field, err)
		}
	}

	cfg := DefaultConfig()
	cfg.Width = -1
	cfg.StallCycles = -5
	cfg.Mem.L2.Ways = 0
	cfg.BTB.Ways = 0
	err = cfg.Validate()
	for _, field := range []string{"Width", "StallCycles", "mem.HierarchyConfig.L2.Ways", "btb.Config.Ways"} {
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("expected joined Width, StallCycles, L2.Ways and BTB.Ways errors, got: %v", err)
		}
	}
}
