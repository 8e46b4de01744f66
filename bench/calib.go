package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Speed normalisation. The VM this benchmark was defined on shares its
// cores with other tenants: each core flips, for fractions of a second to
// minutes at a time, between a quiet state and one about 1.6 times slower,
// so back-to-back runs of one binary differ by 25-45 % in raw wall-clock.
// The noise multiplies every stage alike; it cannot be subtracted, but it
// can be divided out. A fixed arithmetic kernel is timed on every core
// between load segments, and every time measured in a segment is divided
// by the speed factor of the calibrations around it. README.md has the
// measurements behind this.

// refMS is what one calibration round reads on a quiet core of the
// reference machine. Normalised metrics are in these reference
// milliseconds.
const refMS = 1.0

// sensitivity is how strongly the pipeline follows the reference kernel:
// when the kernel slows by a factor f, frames slow by about f^sensitivity.
// The kernel is pure arithmetic, the part of a frame that contention slows
// most; copies, system calls and memory-bound scans, a quarter to a half
// of a frame depending on the workload, slow far less. Fitted across quiet
// and busy minutes: 0.8 on solo-720p, 0.7 on bigdb-100k, 0.5 on the
// tracked-720p median; 0.75 leaves the smallest worst-case error.
const sensitivity = 0.75

const (
	calFloats = 57600 // one 320x180 float32 image, the analysis frame
	calRounds = 7     // sized so a quiet core reads ~refMS
	calRepeat = 5     // rounds per calibration; the median is kept
)

// calibrator owns the reference kernel's buffers, one set per core. The
// kernel allocates nothing.
type calibrator struct {
	cores []*calCore
}

type calCore struct {
	src, dst []float32
	sink     float32 // keeps the dot product alive
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for n := 0; n < runtime.GOMAXPROCS(0); n++ {
		k := &calCore{src: make([]float32, calFloats), dst: make([]float32, calFloats)}
		for i := range k.src {
			k.src[i] = float32(i%251) / 251
		}
		c.cores = append(c.cores, k)
	}
	return c
}

// round runs the kernel once: a 5-tap blur and a dot product, the
// float32 multiply-add mix of the vision kernels it stands in for.
func (k *calCore) round() time.Duration {
	s, d := k.src, k.dst
	t0 := time.Now()
	for r := 0; r < calRounds; r++ {
		for i := 2; i < len(s)-2; i++ {
			d[i] = 0.0625*s[i-2] + 0.25*s[i-1] + 0.375*s[i] + 0.25*s[i+1] + 0.0625*s[i+2]
		}
		var dot float32
		for i, v := range d {
			dot += v * s[i]
		}
		k.sink += dot
	}
	return time.Since(t0)
}

// measure runs calRepeat rounds on every core at once and returns the
// mean over cores of each core's median round, in milliseconds. A core's
// state holds for the few milliseconds a calibration takes, so the median
// is that state; cores differ, so all are read. Call it only while
// nothing else runs: frames drained, mutator idle.
func (c *calibrator) measure() float64 {
	medians := make([]float64, len(c.cores))
	var wg sync.WaitGroup
	for n, k := range c.cores {
		wg.Add(1)
		go func(n int, k *calCore) {
			defer wg.Done()
			var ms [calRepeat]float64
			for i := range ms {
				ms[i] = float64(k.round()) / float64(time.Millisecond)
			}
			sort.Float64s(ms[:])
			medians[n] = ms[calRepeat/2]
		}(n, k)
	}
	wg.Wait()
	return mean(medians)
}

// speedFactor is by how much the interval between two calibrations slowed
// the pipeline down, relative to the reference machine.
func speedFactor(calBefore, calAfter float64) float64 {
	return math.Pow((calBefore+calAfter)/2/refMS, sensitivity)
}

// segment is one stretch of streaming between two calibrations.
type segment struct {
	elapsedMS float64   // first send to last in-flight frame drained
	cpuMS     float64   // process user+sys CPU over the same interval
	speed     float64   // speedFactor of the calibrations around it
	latMS     []float64 // raw latency of every frame delivered in it
	fast      []bool    // per frame: answered by the fast path
}

// ledger sums segments. Throughput and CPU are aggregated as sums over
// segments (delivered / sum of normalised time), not as a median of
// per-segment rates, which measured twice as noisy.
type ledger struct {
	rawMS, normMS       float64
	rawCPUMS, normCPUMS float64
	rawLat, normLat     []float64
	normFast, normFull  []float64 // normLat split by how the frame was answered
	cal                 []float64 // every calibration reading, ms
}

func (l *ledger) add(s segment) {
	l.rawMS += s.elapsedMS
	l.normMS += s.elapsedMS / s.speed
	l.rawCPUMS += s.cpuMS
	l.normCPUMS += s.cpuMS / s.speed
	for i, v := range s.latMS {
		l.rawLat = append(l.rawLat, v)
		l.normLat = append(l.normLat, v/s.speed)
		if s.fast[i] {
			l.normFast = append(l.normFast, v/s.speed)
		} else {
			l.normFull = append(l.normFull, v/s.speed)
		}
	}
}

// cpuNow returns the process's user+sys CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
