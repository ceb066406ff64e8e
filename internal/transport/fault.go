package transport

import (
	"context"
	"fmt"

	"repro/internal/chaos"
)

// faultTransport decorates a Transport with the drop and duplication half of
// the seeded chaos fault model: every wave Send consults the chaos
// controller, which may drop the packet or send it twice — the same per-pair
// deterministic fate stream the DES and live engines inject, here applied at
// the member level of a real fabric. Every copy goes out at once: the
// fabric's real latency is the delivery delay. Recv and membership pass
// through untouched (the fault model of the paper is a channel model, not a
// receiver model).
type faultTransport struct {
	Transport
	ctl *chaos.Controller
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
	return &faultTransport{Transport: t, ctl: chaos.NewController(spec, nMembers)}
}

func (f *faultTransport) Send(ctx context.Context, to int, pkt Packet) error {
	if pkt.Kind != KindWave {
		// Control traffic is out of scope for the paper's channel fault
		// model; it rides the underlying transport unharmed.
		return f.Transport.Send(ctx, to, pkt)
	}
	// With no windows the send time is irrelevant, and with no jitter every
	// fate is the nominal delay: each one is a copy to send now.
	var firstErr error
	for range f.ctl.Fate(f.Transport.Self(), to, 0, 1) {
		if err := f.Transport.Send(ctx, to, pkt); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr // nil when dropped: a lost datagram is not a send error
}
