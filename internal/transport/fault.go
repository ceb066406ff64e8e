package transport

import (
	"context"
	"sync"
	"time"

	"repro/internal/chaos"
)

// faultTransport decorates a Transport with the seeded chaos fault model:
// every Send consults the chaos controller, which may drop the packet,
// duplicate it, or delay copies — the same per-pair deterministic fate
// stream the DES and live engines inject, here applied at the member level
// of a real fabric. Recv and membership pass through untouched (the fault
// model of the paper is a channel model, not a receiver model).
type faultTransport struct {
	Transport
	ctl   *chaos.Controller
	scale time.Duration
	start time.Time

	wg     sync.WaitGroup
	closed chan struct{}
	once   sync.Once
}

// WithFaults wraps t with an enabled chaos spec. nMembers sizes the
// controller's per-pair state (member ids must be < nMembers). timeScale
// maps one topology time unit onto wall-clock time for the spec's windows,
// schedules and jitter (the live engine's convention). A nil or disabled
// spec returns t unchanged.
func WithFaults(t Transport, spec *chaos.Spec, nMembers int, timeScale time.Duration) Transport {
	if !spec.Enabled() {
		return t
	}
	if timeScale <= 0 {
		timeScale = 100 * time.Microsecond
	}
	return &faultTransport{
		Transport: t,
		ctl:       chaos.NewController(spec, nMembers),
		scale:     timeScale,
		start:     time.Now(),
		closed:    make(chan struct{}),
	}
}

func (f *faultTransport) Send(ctx context.Context, to int, pkt Packet) error {
	if pkt.Kind != KindWave {
		// Control traffic is out of scope for the paper's channel fault
		// model; it rides the underlying transport unharmed.
		return f.Transport.Send(ctx, to, pkt)
	}
	now := time.Since(f.start).Seconds() / f.scale.Seconds()
	// Nominal delay 1 topology unit: fates at or below it go out immediately
	// (the fabric's real latency is the delivery delay), larger ones are the
	// injected jitter, scheduled as extra wall-clock delay.
	const nominal = 1.0
	fates := f.ctl.Fate(f.Transport.Self(), to, now, nominal)
	var firstErr error
	for _, fd := range fates {
		if fd <= nominal {
			if err := f.Transport.Send(ctx, to, pkt); err != nil && firstErr == nil {
				firstErr = err
			}
			continue
		}
		extra := time.Duration((fd - nominal) * float64(f.scale))
		f.wg.Add(1)
		time.AfterFunc(extra, func() {
			defer f.wg.Done()
			select {
			case <-f.closed:
				return
			default:
			}
			sendCtx, cancel := context.WithTimeout(context.Background(), writeTimeout)
			defer cancel()
			_ = f.Transport.Send(sendCtx, to, pkt)
		})
	}
	return firstErr // nil when dropped: a lost datagram is not a send error
}

func (f *faultTransport) Close() error {
	f.once.Do(func() { close(f.closed) })
	f.wg.Wait()
	return f.Transport.Close()
}
