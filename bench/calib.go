package main

import (
	"crypto/ed25519"
	"crypto/sha512"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference host's CPU does not run at one speed. The thread CPU time of
// a fixed kernel (below) read 194 us and 311 us in two seconds of the same
// run, and its per-run average moved by 24-35 % across ten back-to-back runs
// (README, "Host speed"): a shared two-vCPU guest whose hyperthread siblings
// belong to somebody else. Everything CPU-bound moves with it — ten raw
// order_sat runs spread 26 % in tps — and no window length averages away a
// drift that lasts minutes.
//
// So the CPU-bound workloads measure the host's speed while they run, with
// the kernel below, and scale their wall-clock numbers to a host on which the
// kernel takes nominalKernel: tps x (kernel time / nominal), CPU time and
// latency ÷ the same factor, slice by slice. The same ten runs then spread
// 9 %. The kernel is standard-library code only, so no change to this
// repository can move it.

// nominalKernel is the kernel's thread CPU time on the host the numbers are
// scaled to: about what the reference host reads with both cores busy.
const nominalKernel = 200 * time.Microsecond

// kernelRuns is how many signature checks make one kernel run.
const kernelRuns = 4

// kernel is a fixed, cache-resident piece of work: ed25519 verifications of
// one message. Compute-bound on purpose: it follows clock frequency and
// hyperthread contention, the host effects, and not the memory traffic of the
// workload running beside it.
type kernel struct {
	pub ed25519.PublicKey
	msg []byte
	sig []byte
}

func newKernel() *kernel {
	seed := sha512.Sum512_256([]byte("repro/bench calibration kernel"))
	priv := ed25519.NewKeyFromSeed(seed[:])
	k := &kernel{pub: priv.Public().(ed25519.PublicKey), msg: make([]byte, 96)}
	k.sig = ed25519.Sign(priv, k.msg)
	return k
}

// run executes the kernel once on the calling goroutine, which must be locked
// to its OS thread, and returns the thread CPU time it took.
func (k *kernel) run() time.Duration {
	start := threadCPU()
	for i := 0; i < kernelRuns; i++ {
		ed25519.Verify(k.pub, k.msg, k.sig)
	}
	return threadCPU() - start
}

// threadCPU is the calling OS thread's CPU time: unlike wall time it does
// not count the moments the thread was waiting for a core.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// hostSpeed samples the kernel every 20 ms on its own OS thread for as long
// as a real-stack window is open: about 1.5 % of one core.
type hostSpeed struct {
	stop chan struct{}
	done sync.WaitGroup
	at   []int64   // ns since the load's epoch
	took []float64 // kernel thread CPU time, ns
}

func startHostSpeed(epoch time.Time) *hostSpeed {
	h := &hostSpeed{stop: make(chan struct{})}
	k := newKernel()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				took := k.run()
				h.at = append(h.at, int64(time.Since(epoch)))
				h.took = append(h.took, float64(took))
			}
		}
	}()
	return h
}

// factors stops the sampler and returns, per slice, how slow the host was:
// the median kernel time in the slice over the nominal one (above 1 = slower
// than nominal). A slice without a sample takes the window's median.
func (h *hostSpeed) factors(cuts []int64) []float64 {
	close(h.stop)
	h.done.Wait()
	slices := len(cuts) - 1
	by := make([][]float64, slices)
	for i, at := range h.at {
		for k := 0; k < slices; k++ {
			if at >= cuts[k] && at < cuts[k+1] {
				by[k] = append(by[k], h.took[i])
				break
			}
		}
	}
	overall := newSample(h.took).q(0.5)
	out := make([]float64, slices)
	for k := range out {
		took := overall
		if len(by[k]) > 0 {
			took = newSample(by[k]).q(0.5)
		}
		out[k] = 1
		if took > 0 {
			out[k] = took / float64(nominalKernel)
		}
	}
	return out
}
