package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinHorizon is the part of a wait the wire clock does not trust the
// runtime timer with. On Linux an idle P parks in epoll_wait, whose timeout
// is whole milliseconds with a 1 ms floor, so time.Sleep(50µs) returns
// after ≈1.1 ms (DESIGN.md §4). The clock therefore sleeps on a timer only
// for the part of a wait beyond this horizon and yield-spins the rest.
const spinHorizon = 1500 * time.Microsecond

// wireClock is the one goroutine per Mem transport that turns deadlines
// into wake-ups: propagation, bandwidth serialization and straggler delay
// all reach it as a lane's head-of-line deliverAt. It keeps the pending
// deadlines in a min-heap, waits for the earliest — coarsely on a timer
// while it is more than spinHorizon away, then by runtime.Gosched spinning,
// which yields the P to any runnable goroutine between clock reads — and
// parks on kick when nothing is pending. A waiter is never woken before
// its deadline.
type wireClock struct {
	epoch time.Time // deadlines are stored as offsets from it

	mu      sync.Mutex
	heap    []deadline // min-heap on at
	stopped bool

	// kick wakes the clock out of a park or a coarse timer wait when a new
	// earliest deadline is registered, and on stop.
	kick chan struct{}
	done chan struct{} // closed when run returns

	spins atomic.Int64 // Gosched iterations; tests assert an idle clock makes none
}

type deadline struct {
	at   time.Duration // since epoch
	wake chan<- struct{}
}

// newWireClock starts the clock goroutine; stop joins it. waiters sizes the
// heap so registering never allocates in steady state.
func newWireClock(waiters int) *wireClock {
	c := &wireClock{
		epoch: time.Now(),
		heap:  make([]deadline, 0, waiters),
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	go c.run()
	return c
}

// sleepUntil blocks the caller until at. wake must have capacity 1 and
// belong to one waiter at a time (each lane owns one).
func (c *wireClock) sleepUntil(at time.Time, wake chan struct{}) {
	d := deadline{at: at.Sub(c.epoch), wake: wake}
	c.mu.Lock()
	c.push(d)
	earliest := c.heap[0] == d
	c.mu.Unlock()
	if earliest {
		select {
		case c.kick <- struct{}{}:
		default: // a kick is already pending; the clock re-reads the heap on it
		}
	}
	<-wake
}

func (c *wireClock) run() {
	defer close(c.done)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		c.mu.Lock()
		if c.stopped {
			c.mu.Unlock()
			return
		}
		now := time.Since(c.epoch)
		for len(c.heap) > 0 && c.heap[0].at <= now {
			c.pop().wake <- struct{}{} // capacity 1, one registration per channel: never blocks
		}
		if len(c.heap) == 0 {
			c.mu.Unlock()
			<-c.kick
			continue
		}
		wait := c.heap[0].at - now
		c.mu.Unlock()
		if wait > spinHorizon {
			timer.Reset(wait - spinHorizon)
			select {
			case <-timer.C:
			case <-c.kick:
				timer.Stop()
			}
			continue
		}
		c.spins.Add(1)
		runtime.Gosched()
	}
}

// stop ends the clock goroutine and waits for it. Mem joins its lanes
// first, so no waiter is left.
func (c *wireClock) stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
	select {
	case c.kick <- struct{}{}:
	default:
	}
	<-c.done
}

func (c *wireClock) push(d deadline) {
	h := append(c.heap, d)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].at <= h[i].at {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	c.heap = h
}

func (c *wireClock) pop() deadline {
	h := c.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		min := i
		if l := 2*i + 1; l < last && h[l].at < h[min].at {
			min = l
		}
		if r := 2*i + 2; r < last && h[r].at < h[min].at {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	c.heap = h
	return top
}
