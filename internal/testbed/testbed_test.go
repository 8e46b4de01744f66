package testbed

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/sim"
)

func TestProfilesValid(t *testing.T) {
	for _, cfg := range []MachineConfig{E1(), E2(), Cloud(), ClientNUC(0)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	if E1().GPUArch != ArchGeForceRTX || E2().GPUArch != ArchAmpere || Cloud().GPUArch != ArchTesla {
		t.Error("GPU architectures do not match the paper's testbed")
	}
	if E2().GPUFactor >= E1().GPUFactor {
		t.Error("E2's A40s should be faster than E1's RTX 2080s")
	}
	if Cloud().GPUFactor <= E1().GPUFactor {
		t.Error("cloud Tesla (arch mismatch) should be slower than E1")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []MachineConfig{
		{},
		{Name: "x"},
		{Name: "x", CPUCores: 4},
		{Name: "x", CPUCores: 4, MemBytes: 1, GPUs: -1, CPUFactor: 1},
		{Name: "x", CPUCores: 4, MemBytes: 1, GPUs: 1, CPUFactor: 1, GPUFactor: 0},
		{Name: "x", CPUCores: 4, MemBytes: 1, CPUFactor: 1, VirtNoiseSigma: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, cfg)
		}
	}
}

func TestDeviceAcquireRelease(t *testing.T) {
	eng := sim.New(1)
	m := NewMachine(E1(), eng)
	granted := 0
	for i := 0; i < 3; i++ {
		m.GPU.Acquire(func() { granted++ })
	}
	for eng.Step() {
	}
	// E1 has 2 GPUs: two grants immediate, one queued.
	if granted != 2 {
		t.Fatalf("granted = %d, want 2", granted)
	}
	if m.GPU.QueueLen() != 1 {
		t.Fatalf("queue = %d, want 1", m.GPU.QueueLen())
	}
	m.GPU.Release()
	for eng.Step() {
	}
	if granted != 3 {
		t.Errorf("granted after release = %d, want 3", granted)
	}
	if m.GPU.InUse() != 2 {
		t.Errorf("InUse = %d, want 2 (slot handed to waiter)", m.GPU.InUse())
	}
}

func TestDeviceFIFO(t *testing.T) {
	eng := sim.New(1)
	m := NewMachine(MachineConfig{
		Name: "one", CPUCores: 1, GPUs: 1, GPUArch: ArchTesla,
		MemBytes: 1 << 30, CPUFactor: 1, GPUFactor: 1,
	}, eng)
	var order []int
	m.GPU.Acquire(func() { order = append(order, 0) })
	for i := 1; i <= 3; i++ {
		i := i
		m.GPU.Acquire(func() { order = append(order, i) })
	}
	for eng.Step() {
	}
	for i := 0; i < 3; i++ {
		m.GPU.Release()
		for eng.Step() {
		}
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("waiters not FIFO: %v", order)
		}
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	eng := sim.New(1)
	m := NewMachine(E1(), eng)
	defer func() {
		if recover() == nil {
			t.Error("Release of idle device did not panic")
		}
	}()
	m.GPU.Release()
}

func TestZeroCapacityNeverGrants(t *testing.T) {
	eng := sim.New(1)
	m := NewMachine(ClientNUC(1), eng) // no GPU
	granted := false
	m.GPU.Acquire(func() { granted = true })
	for eng.Step() {
	}
	if granted {
		t.Error("zero-capacity GPU granted a slot")
	}
}

func TestUtilizationIntegral(t *testing.T) {
	eng := sim.New(1)
	m := NewMachine(E1(), eng) // 2 GPUs
	// Hold one GPU slot for 40ms of an 80ms run: utilization = (1*40)/(2*80) = 0.25.
	m.GPU.Acquire(func() {
		eng.After(40*time.Millisecond, func() { m.GPU.Release() })
	})
	eng.Run(80 * time.Millisecond)
	if got := m.GPU.Utilization(); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("utilization = %v, want 0.25", got)
	}
}

func TestComputeTimeFactors(t *testing.T) {
	eng := sim.New(1)
	e1cfg := E1()
	e1cfg.VirtNoiseSigma = 0
	e2cfg := E2()
	e2cfg.VirtNoiseSigma = 0
	e1 := NewMachine(e1cfg, eng)
	e2 := NewMachine(e2cfg, eng)
	base := 10 * time.Millisecond
	if e1.ComputeTime(base, true) != base {
		t.Errorf("E1 GPU time = %v, want %v", e1.ComputeTime(base, true), base)
	}
	if got := e2.ComputeTime(base, true); got != 8*time.Millisecond {
		t.Errorf("E2 GPU time = %v, want 8ms", got)
	}
	if got := e2.ComputeTime(base, false); got != 9*time.Millisecond {
		t.Errorf("E2 CPU time = %v, want 9ms", got)
	}
}

func TestEdgeMachinesHaveMildNoise(t *testing.T) {
	// Every machine carries compute-time variance so multi-client
	// collision dynamics are not lock-stepped; the cloud additionally
	// suffers more frequent straggler spikes (virtualized GPU).
	if E1().VirtNoiseSigma <= 0 || E2().VirtNoiseSigma <= 0 || Cloud().VirtNoiseSigma <= 0 {
		t.Error("machines without compute-time variance")
	}
	if Cloud().StragglerProb <= E1().StragglerProb {
		t.Errorf("cloud straggler prob %v <= E1 %v", Cloud().StragglerProb, E1().StragglerProb)
	}
}

func TestCloudVirtualizationNoise(t *testing.T) {
	eng := sim.New(3)
	cfg := Cloud()
	c := NewMachine(cfg, eng)
	base := 10 * time.Millisecond
	seen := map[time.Duration]bool{}
	var sum time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		d := c.ComputeTime(base, true)
		seen[d] = true
		sum += d
	}
	if len(seen) < 10 {
		t.Error("virtualization noise absent: compute times identical")
	}
	// Expected mean: base × GPUFactor × E[lognormal] × E[straggler boost].
	want := float64(base) * cfg.GPUFactor *
		math.Exp(cfg.VirtNoiseSigma*cfg.VirtNoiseSigma/2) *
		(1 + cfg.StragglerProb*(cfg.StragglerFactor-1))
	mean := float64(sum) / n
	if mean < 0.9*want || mean > 1.1*want {
		t.Errorf("mean cloud compute time = %v, want ≈%v", time.Duration(mean), time.Duration(want))
	}
}

func TestMemoryAccounting(t *testing.T) {
	eng := sim.New(1)
	m := NewMachine(MachineConfig{
		Name: "tiny", CPUCores: 1, MemBytes: 100, CPUFactor: 1,
	}, eng)
	if !m.AllocMem(60) {
		t.Fatal("alloc 60/100 failed")
	}
	if m.AllocMem(50) {
		t.Fatal("alloc beyond capacity succeeded")
	}
	if !m.AllocMem(40) {
		t.Fatal("alloc to exactly full failed")
	}
	if m.MemUsed() != 100 || m.MemPeak() != 100 {
		t.Errorf("used=%d peak=%d", m.MemUsed(), m.MemPeak())
	}
	m.FreeMem(100)
	if m.MemUsed() != 0 || m.MemPeak() != 100 {
		t.Errorf("after free: used=%d peak=%d", m.MemUsed(), m.MemPeak())
	}
}

func TestFreeTooMuchPanics(t *testing.T) {
	eng := sim.New(1)
	m := NewMachine(E1(), eng)
	m.AllocMem(10)
	defer func() {
		if recover() == nil {
			t.Error("over-free did not panic")
		}
	}()
	m.FreeMem(20)
}

func TestNewMachinePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMachine with invalid config did not panic")
		}
	}()
	NewMachine(MachineConfig{}, sim.New(1))
}

// ClientNUC is an Intel NUC client host (no GPU).
func ClientNUC(i int) MachineConfig {
	return MachineConfig{
		Name: fmt.Sprintf("nuc-%d", i), CPUCores: 4, GPUs: 0, GPUArch: ArchNone,
		MemBytes: 32 << 30, CPUFactor: 1.3, GPUFactor: 0, Cluster: "clients",
	}
}

// InUse returns the number of currently held slots.
func (d *Device) InUse() int { return d.inUse }

// QueueLen returns the number of waiting acquisitions.
func (d *Device) QueueLen() int { return len(d.waiters) }
