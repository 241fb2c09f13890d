package runtime

import (
	"spinstreams/internal/mailbox"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
)

// liveFanIn counts, per station, the distinct live stations holding an
// out-edge into it — the runtime's version of plan.FanIn, minus stations
// the mask marks retired (a retired station keeps its plan slot and its
// stale out-edges, but no longer sends). A nil mask counts everything,
// which is correct for the initial deployment. The count is what proves
// an inbox single-producer: each station is one goroutine, so fan-in <= 1
// means at most one sending goroutine ever touches the inbox.
func liveFanIn(p *plan.Plan, retired []bool) []int {
	in := make([]int, len(p.Stations))
	var targets []plan.StationID
	for i := range p.Stations {
		if retired != nil && retired[i] {
			continue
		}
		// A station with several edges to the same target (multi-port
		// routing) is still one producer of that inbox.
		targets = targets[:0]
		for _, e := range p.Stations[i].Out {
			dup := false
			for _, t := range targets {
				if t == e.To {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			targets = append(targets, e.To)
			in[e.To]++
		}
	}
	return in
}

// resolveInboxMode picks one inbox's implementation: the lock-free ring
// iff the policy is Auto and the plan proves at most one producer, the
// batched multi-producer queue otherwise.
func resolveInboxMode(policy mailbox.Mode, producers int) mailbox.Mode {
	if policy == mailbox.Auto && producers <= 1 {
		return mailbox.SPSC
	}
	return mailbox.Batched
}

// newInbox builds one station's inbox in the resolved transport.
func newInbox(cfg Config, producers int) (*mailbox.Mailbox[operators.Tuple], error) {
	return mailbox.New[operators.Tuple](mailbox.Config{
		Capacity: cfg.MailboxSize,
		Mode:     resolveInboxMode(cfg.Mailbox, producers),
		Batch:    cfg.Batch,
	})
}

// demoteInbox builds the replacement inbox for an edge whose SPSC proof
// a reconfiguration invalidated. It is the only constructor live
// reconfiguration may use to swap an existing station's inbox (the
// epochfence analyzer pins this): it resolves the inbox as multi-producer,
// so it never yields a ring and a demoted edge can never be re-promoted
// to SPSC.
func demoteInbox(cfg Config) (*mailbox.Mailbox[operators.Tuple], error) {
	return newInbox(cfg, 2)
}
