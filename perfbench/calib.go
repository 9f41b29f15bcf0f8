package main

// Host speed, sampled through each run, so that CPU figures can be put
// in terms of a reference host. On a shared virtual machine the CPU
// time one piece of code takes is not fixed: on the 2-vCPU guest the
// README's figures come from, one Ed25519 check took about 70 us in
// some 20 ms intervals and 110-140 us in others, and the share of slow
// intervals moved between quarter-hours, taking the program's CPU per
// op with it.
// A fixed kernel that the program under test cannot change, timed
// every few tens of milliseconds, measures that slowdown as it happens.

import (
	"crypto/ed25519"
	"crypto/sha256"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// calibRefUs is the kernel's pass time, in microseconds, at which
	// the scaled figures are expressed: about its mean on the guest the
	// README's figures come from.
	calibRefUs = 100.0
	// calibEvery is the sampling period and calibPasses the passes
	// timed in each sample; together they cost about 1% of one CPU.
	calibEvery  = 40 * time.Millisecond
	calibPasses = 4
)

type speedSample struct {
	at     time.Time
	passUs float64       // thread CPU per pass
	cost   time.Duration // thread CPU the sample took
}

// speedSampler times the kernel on its own locked OS thread, in thread
// CPU time, so that being descheduled does not count.
type speedSampler struct {
	pub  ed25519.PublicKey
	msg  []byte
	sig  []byte
	quit chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []speedSample
}

func startSpeedSampler() *speedSampler {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	msg := make([]byte, 1024)
	for i := range msg {
		msg[i] = byte(i)
	}
	s := &speedSampler{
		pub: priv.Public().(ed25519.PublicKey), msg: msg, sig: ed25519.Sign(priv, msg),
		quit: make(chan struct{}), done: make(chan struct{}),
	}
	go s.loop()
	return s
}

func (s *speedSampler) loop() {
	defer close(s.done)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(calibEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
		}
		at, c0 := time.Now(), threadCPU()
		for i := 0; i < calibPasses; i++ {
			// An Ed25519 check and a SHA-256 of 1 KiB: the kind of work
			// that carries the program's CPU.
			if !ed25519.Verify(s.pub, s.msg, s.sig) || sha256.Sum256(s.msg) == [32]byte{} {
				panic("speed sampler: kernel inputs changed")
			}
		}
		cost := threadCPU() - c0
		s.mu.Lock()
		s.samples = append(s.samples, speedSample{at: at, passUs: us(cost) / calibPasses, cost: cost})
		s.mu.Unlock()
	}
}

func (s *speedSampler) stop() {
	close(s.quit)
	<-s.done
}

// over is the mean pass time of the samples taken in [from, to), how
// many there were, and the thread CPU they took.
func (s *speedSampler) over(from, to time.Time) (passUs float64, n int, cost time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := 0.0
	for _, x := range s.samples {
		if !x.at.Before(from) && x.at.Before(to) {
			sum += x.passUs
			n++
			cost += x.cost
		}
	}
	return ratio(sum, float64(n)), n, cost
}

// scaled is the process CPU spent in [from, to), less the sampler's
// own, in reference-host terms. With no sample in the interval it is
// the measured CPU.
func (s *speedSampler) scaled(cpu time.Duration, from, to time.Time) time.Duration {
	pass, n, cost := s.over(from, to)
	if n == 0 {
		return cpu
	}
	return time.Duration(float64(cpu-cost) * calibRefUs / pass)
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
