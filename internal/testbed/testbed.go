// Package testbed models the paper's heterogeneous edge–cloud machines:
// E1 (Intel i9, 2× NVIDIA RTX 2080, 128 GB), E2 (2× AMD EPYC 7302, 2×
// NVIDIA A40, 264 GB), the AWS cloud VM (4 Broadwell vCPUs, Tesla V100,
// 64 GB), and the Intel NUC client hosts. Each machine exposes CPU and
// GPU devices with FIFO slot queues, memory accounting, busy-time
// integrals for utilization metrics, and per-architecture compute-speed
// factors (plus virtualization noise on the cloud VM, modelling the
// paper's observation that the virtualized Tesla deployment underperforms
// despite ample raw capacity).
package testbed

import (
	"fmt"
	"math"
	"time"

	"github.com/edge-mar/scatter/internal/sim"
)

// GPUArch identifies the GPU architecture of a machine — the paper's
// orchestrator must map differently-compiled images onto matching
// architectures, which the scheduler's constraints reproduce.
type GPUArch string

// Architectures present in the paper's testbed.
const (
	ArchGeForceRTX GPUArch = "geforce-rtx" // E1
	ArchAmpere     GPUArch = "ampere"      // E2
	ArchTesla      GPUArch = "tesla"       // cloud
	ArchNone       GPUArch = "none"        // CPU-only client hosts
)

// MachineConfig describes one machine.
type MachineConfig struct {
	Name     string
	CPUCores int
	GPUs     int
	GPUArch  GPUArch
	MemBytes int64
	// CPUFactor and GPUFactor scale compute times relative to the E1
	// reference (smaller = faster).
	CPUFactor float64
	GPUFactor float64
	// VirtNoiseSigma, when positive, multiplies compute times by a
	// lognormal factor exp(N(0, sigma²)) — virtualization interference.
	VirtNoiseSigma float64
	// StragglerProb/StragglerFactor model heavy-tail latency spikes
	// (GC pauses, CUDA transfer stalls): with probability StragglerProb a
	// computation takes StragglerFactor times longer.
	StragglerProb   float64
	StragglerFactor float64
	// Cluster names the orchestration cluster the machine belongs to.
	Cluster string
}

// Validate reports configuration errors.
func (c MachineConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("testbed: machine without a name")
	}
	if c.CPUCores <= 0 {
		return fmt.Errorf("testbed: machine %q has %d CPU cores", c.Name, c.CPUCores)
	}
	if c.GPUs < 0 || c.MemBytes <= 0 {
		return fmt.Errorf("testbed: machine %q has invalid GPU/memory config", c.Name)
	}
	if c.CPUFactor <= 0 || (c.GPUs > 0 && c.GPUFactor <= 0) {
		return fmt.Errorf("testbed: machine %q has non-positive speed factor", c.Name)
	}
	if c.VirtNoiseSigma < 0 {
		return fmt.Errorf("testbed: machine %q has negative noise sigma", c.Name)
	}
	if c.StragglerProb < 0 || c.StragglerProb > 1 {
		return fmt.Errorf("testbed: machine %q has straggler prob outside [0,1]", c.Name)
	}
	if c.StragglerProb > 0 && c.StragglerFactor < 1 {
		return fmt.Errorf("testbed: machine %q has straggler factor < 1", c.Name)
	}
	return nil
}

// Paper testbed machine profiles. Speed factors are the calibration in
// DESIGN.md §5: E2's A40s are ≈20% faster than E1's RTX 2080s; the cloud
// V100 runs containers not compiled for its sm architecture, costing ≈35%
// plus virtualization noise.
//
// CPUFactor additionally folds in how well the vision kernels scale with
// core count on each machine: the parallel kernels (DESIGN.md "Parallel
// vision kernels") are measured with BenchmarkVisionFrame at -cpu
// 1,4,8 (EXPERIMENTS.md scaling recipe), and the per-architecture
// factor is the ratio of the machine's per-frame wall time to E1's at
// the machine's core count. Re-derive the factors from that table when
// the kernels change. Re-checked after the blocked sift/primary kernels
// (BenchmarkVisionFrame -cpu 1,2 on the 2-vCPU build host: 39.7/27.7 ms
// became 15.0/11.4 ms): every machine runs the same kernels, so the
// between-machine ratios below stand; what changed is that a smaller
// share of a frame now fans out (1→2 core speedup 1.43× → 1.32×).

// E1 is the local edge server.
func E1() MachineConfig {
	return MachineConfig{
		Name: "E1", CPUCores: 16, GPUs: 2, GPUArch: ArchGeForceRTX,
		MemBytes: 128 << 30, CPUFactor: 1.0, GPUFactor: 1.0,
		VirtNoiseSigma: 0.09, StragglerProb: 0.02, StragglerFactor: 2.5,
		Cluster: "edge",
	}
}

// E2 is the rack-mounted cellular-hosted edge server.
func E2() MachineConfig {
	return MachineConfig{
		Name: "E2", CPUCores: 64, GPUs: 2, GPUArch: ArchAmpere,
		MemBytes: 264 << 30, CPUFactor: 0.9, GPUFactor: 0.8,
		VirtNoiseSigma: 0.09, StragglerProb: 0.02, StragglerFactor: 2.5,
		Cluster: "edge",
	}
}

// Cloud is the AWS GPU instance.
func Cloud() MachineConfig {
	return MachineConfig{
		Name: "cloud", CPUCores: 4, GPUs: 1, GPUArch: ArchTesla,
		MemBytes: 64 << 30, CPUFactor: 1.08, GPUFactor: 1.06,
		VirtNoiseSigma: 0.08, StragglerProb: 0.03, StragglerFactor: 3,
		Cluster: "cloud",
	}
}

// ClientNUC is an Intel NUC client host (no GPU).
func ClientNUC(i int) MachineConfig {
	return MachineConfig{
		Name: fmt.Sprintf("nuc-%d", i), CPUCores: 4, GPUs: 0, GPUArch: ArchNone,
		MemBytes: 32 << 30, CPUFactor: 1.3, GPUFactor: 0, Cluster: "clients",
	}
}

// Device is a pool of identical execution slots (CPU cores or GPUs) with
// a FIFO wait queue and a busy-time integral for utilization accounting.
type Device struct {
	name     string
	capacity int
	inUse    int
	waiters  []func()
	eng      *sim.Engine

	busyIntegral time.Duration // Σ over slots of busy duration
	lastChange   sim.Time
}

func newDevice(name string, capacity int, eng *sim.Engine) *Device {
	return &Device{name: name, capacity: capacity, eng: eng}
}

// Capacity returns the number of slots.
func (d *Device) Capacity() int { return d.capacity }

// InUse returns the number of currently held slots.
func (d *Device) InUse() int { return d.inUse }

// QueueLen returns the number of waiting acquisitions.
func (d *Device) QueueLen() int { return len(d.waiters) }

func (d *Device) accumulate() {
	now := d.eng.Now()
	d.busyIntegral += time.Duration(d.inUse) * (now - d.lastChange)
	d.lastChange = now
}

// Acquire requests a slot; granted runs (via the engine, preserving event
// ordering) as soon as one is free — immediately if capacity allows.
// Devices with zero capacity never grant.
func (d *Device) Acquire(granted func()) {
	if d.capacity == 0 {
		return
	}
	if d.inUse < d.capacity {
		d.accumulate()
		d.inUse++
		d.eng.After(0, granted)
		return
	}
	d.waiters = append(d.waiters, granted)
}

// Release frees a slot, handing it to the oldest waiter if any. Releasing
// an unheld slot panics — it indicates a scheduling bug.
func (d *Device) Release() {
	if d.inUse <= 0 {
		panic(fmt.Sprintf("testbed: release of idle device %s", d.name))
	}
	if len(d.waiters) > 0 {
		// Slot transfers directly to the next waiter; inUse unchanged.
		next := d.waiters[0]
		copy(d.waiters, d.waiters[1:])
		d.waiters = d.waiters[:len(d.waiters)-1]
		d.eng.After(0, next)
		return
	}
	d.accumulate()
	d.inUse--
}

// Utilization returns the mean fraction of slots busy since the start of
// the run (virtual time zero), which is the window every experiment
// measures over.
func (d *Device) Utilization() float64 {
	if d.capacity == 0 {
		return 0
	}
	d.accumulate()
	window := d.eng.Now()
	if window <= 0 {
		return 0
	}
	return float64(d.busyIntegral) / float64(time.Duration(d.capacity)*window)
}

// BusyIntegral returns the cumulative slot-busy time.
func (d *Device) BusyIntegral() time.Duration {
	d.accumulate()
	return d.busyIntegral
}

// Machine is a simulated host.
type Machine struct {
	cfg MachineConfig
	eng *sim.Engine
	CPU *Device
	GPU *Device

	memUsed int64
	memPeak int64
}

// NewMachine builds a machine bound to the simulation engine. It panics
// on invalid configuration.
func NewMachine(cfg MachineConfig, eng *sim.Engine) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Machine{
		cfg: cfg,
		eng: eng,
		CPU: newDevice(cfg.Name+"/cpu", cfg.CPUCores, eng),
		GPU: newDevice(cfg.Name+"/gpu", cfg.GPUs, eng),
	}
}

// Config returns the machine configuration.
func (m *Machine) Config() MachineConfig { return m.cfg }

// Name returns the machine name.
func (m *Machine) Name() string { return m.cfg.Name }

// ComputeTime scales a reference-duration workload by this machine's
// speed factor for the given device class, applying virtualization noise
// when configured.
func (m *Machine) ComputeTime(base time.Duration, gpu bool) time.Duration {
	f := m.cfg.CPUFactor
	if gpu {
		f = m.cfg.GPUFactor
	}
	d := time.Duration(float64(base) * f)
	if m.cfg.VirtNoiseSigma > 0 {
		noise := math.Exp(m.eng.Rand().NormFloat64() * m.cfg.VirtNoiseSigma)
		d = time.Duration(float64(d) * noise)
	}
	if m.cfg.StragglerProb > 0 && m.eng.Rand().Float64() < m.cfg.StragglerProb {
		d = time.Duration(float64(d) * m.cfg.StragglerFactor)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// AllocMem reserves bytes of memory; it reports false (and reserves
// nothing) when the machine would exceed capacity — the condition that
// limits stateful sift on memory-constrained edge hardware.
func (m *Machine) AllocMem(bytes int64) bool {
	if bytes < 0 {
		panic("testbed: negative allocation")
	}
	if m.memUsed+bytes > m.cfg.MemBytes {
		return false
	}
	m.memUsed += bytes
	if m.memUsed > m.memPeak {
		m.memPeak = m.memUsed
	}
	return true
}

// FreeMem releases bytes previously reserved. Freeing more than reserved
// panics — it indicates an accounting bug.
func (m *Machine) FreeMem(bytes int64) {
	if bytes < 0 || bytes > m.memUsed {
		panic(fmt.Sprintf("testbed: bad free of %d bytes (%d used) on %s", bytes, m.memUsed, m.cfg.Name))
	}
	m.memUsed -= bytes
}

// MemUsed returns the currently reserved memory.
func (m *Machine) MemUsed() int64 { return m.memUsed }

// MemPeak returns the high-water mark.
func (m *Machine) MemPeak() int64 { return m.memPeak }
