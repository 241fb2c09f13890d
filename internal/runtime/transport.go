package runtime

import (
	"spinstreams/internal/mailbox"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
)

// liveFanIn counts, per station, the distinct live stations holding an
// out-edge into it — plan.FanIn minus the stations the mask marks
// retired (a retired station keeps its plan slot and its stale
// out-edges, but no longer sends). A nil mask counts everything,
// which is correct for the initial deployment. The count is what proves
// an inbox single-producer: each station is one goroutine, so fan-in <= 1
// means at most one sending goroutine ever touches the inbox.
func liveFanIn(p *plan.Plan, retired []bool) []int {
	in := make([]int, len(p.Stations))
	for i, producers := range plan.FanIn(p) {
		for _, from := range producers {
			if retired == nil || !retired[from] {
				in[i]++
			}
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
