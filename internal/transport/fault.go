package transport

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/chaos"
)

// FaultClock applies the seeded chaos fault model to the wave sends of the
// members that wrap their transport in it: one chaos.Controller.Fate call per
// wave Send, one copy sent per fate. Recv, membership and control traffic
// pass through untouched (the paper's fault model is a channel model). The
// clocked form (NewFaultClock) keys the fate streams on the parts a wave
// travels between, so a part keeps its stream when another member adopts it,
// reads the windows on a clock started by the first wave, and holds each copy
// scale × its fate. The clockless form (WithFaults, a nil delay) keys them on
// the members and sends every copy at once.
type FaultClock struct {
	ctl   *chaos.Controller
	delay func(from, to int) float64
	scale time.Duration

	mu    sync.Mutex // a Fate call advances its pair's stream: one at a time
	start time.Time
}

// WithFaults wraps t with an enabled chaos spec that drops and duplicates.
// nMembers sizes the controller's per-pair state (member ids must be <
// nMembers). A nil or disabled spec returns t unchanged. The half of the
// model that needs a clock — jitter, down and slow windows, crashes — is not
// applied at this level, so a spec carrying any of it panics rather than
// being silently ignored.
func WithFaults(t Transport, spec *chaos.Spec, nMembers int) Transport {
	if !spec.Enabled() {
		return t
	}
	if spec.Jitter != 0 || len(spec.Down) > 0 || len(spec.Crashes) > 0 {
		panic(fmt.Sprintf("transport: WithFaults applies drop and dup only, not jitter %g, %d windows, %d crashes",
			spec.Jitter, len(spec.Down), len(spec.Crashes)))
	}
	return NewFaultClock(spec, nMembers, nil, 0).Wrap(t)
}

// NewFaultClock is the clocked form over nParts parts: delay, called one send
// at a time, gives a pair's nominal delay in topology time units, one of
// which lasts scale. A nil spec injects nothing, and every wave still waits
// out its link's scaled delay. The spec's crashes are the caller's.
func NewFaultClock(spec *chaos.Spec, nParts int, delay func(from, to int) float64, scale time.Duration) *FaultClock {
	if spec == nil {
		spec = &chaos.Spec{}
	}
	return &FaultClock{ctl: chaos.NewController(spec, nParts), delay: delay, scale: scale}
}

// Wrap decorates one member's transport.
func (c *FaultClock) Wrap(t Transport) Transport { return &faultTransport{Transport: t, c: c} }

// Stats returns the faults injected so far; read it while no member sends.
func (c *FaultClock) Stats() chaos.Stats { return c.ctl.Stats() }

// Started returns when the clocked form's first wave was sent — the instant
// its windows are read against — or the zero time while none has been.
func (c *FaultClock) Started() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.start
}

type faultTransport struct {
	Transport
	c *FaultClock
}

func (f *faultTransport) Send(ctx context.Context, to int, pkt Packet) error {
	c := f.c
	if pkt.Kind != KindWave {
		return f.Transport.Send(ctx, to, pkt)
	}
	if c.delay == nil {
		// With no windows the send time is irrelevant, and with no jitter
		// every fate is the nominal delay: each one is a copy to send now.
		var firstErr error
		for range c.ctl.Fate(f.Transport.Self(), to, 0, 1) {
			if err := f.Transport.Send(ctx, to, pkt); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr // nil when dropped: a lost datagram is not a send error
	}
	from, dst := int(pkt.FromPart), int(pkt.ToPart)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.start.IsZero() {
		c.start = time.Now()
	}
	now := float64(time.Since(c.start)) / float64(c.scale)
	// A copy in flight is the network's. Duplicates alias pkt.Entries, which
	// no sender writes after Send.
	for _, fate := range c.ctl.Fate(from, dst, now, c.delay(from, dst)) {
		time.AfterFunc(time.Duration(fate*float64(c.scale)), func() { _ = f.Transport.Send(context.Background(), to, pkt) })
	}
	return nil
}
