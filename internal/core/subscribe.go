package core

// Push-invalidation wiring for the meta-cache. The HNS library keeps
// its MetaClient interface at the paper's four calls, so push is
// discovered by optional interface assertion: a meta client that can
// subscribe exposes Subscribe, and SubscribeMeta wires its
// notifications into cache invalidation. Clients that cannot (test
// doubles wrapping the four calls) simply keep TTL polling.

import (
	"strings"

	"hns/internal/bind"
	"hns/internal/push"
)

// MetaSubscriber is the optional push face of a MetaClient.
// *bind.HRPCClient implements it.
type MetaSubscriber interface {
	Subscribe(cfg bind.SubscribeConfig) *bind.Subscriber
}

// SubscribeMeta connects the meta-cache to the server's push plane when
// the meta client supports it, reporting whether a subscription was
// started. It asks for callback delivery (bind.SubscribeConfig.Callback):
// the server sends a transaction only when this cache's connection has
// read one of its names since the last NOTIFY naming it, which is all a
// cache can hold. While the subscription is live:
//
//   - every pushed transaction invalidates just the meta names it
//     touched, so the next lookups re-fetch them, not wait out a TTL;
//   - a continuity loss (reconnect from a serial older than the zone's history)
//     flushes the whole meta-cache rather than risk stale entries;
//   - each is then relayed to the connections watching the HNS (procWatch):
//     the contexts whose own records changed, else a zone-level flush,
//     which the death of the subscription's connection sends too.
//
// TTL expiry stays on regardless — push narrows the staleness window,
// it never becomes the sole freshness mechanism.
func (h *HNS) SubscribeMeta() bool {
	ms, ok := h.meta.(MetaSubscriber)
	if !ok {
		return false
	}
	sub := ms.Subscribe(bind.SubscribeConfig{
		Zone:     h.metaZone,
		Callback: true,
		OnNotify: func(n push.Notification) {
			if n.Names == nil {
				// Zone-level event (e.g. a secondary refresh landed): the
				// change set is unknown, flush.
				h.resolver.Purge()
				h.watchers.Publish(push.Notification{Serial: n.Serial})
				return
			}
			var contexts []string
			flush := false
			for _, name := range n.Names {
				h.resolver.Invalidate(name, bind.TypeHNSMeta)
				cx, own := strings.CutSuffix(name, ".ctx."+h.metaZone)
				_, host := h.hostCtxs.Load(cx)
				flush = flush || !own || host
				contexts = append(contexts, cx)
			}
			if flush { // another record, or a host context's: any answer may move
				contexts = nil
			}
			h.watchers.Publish(push.Notification{Names: contexts, Serial: n.Serial})
		},
		OnReset: func() {
			h.resolver.Purge()
			h.watchers.Publish(push.Notification{})
		},
		OnDown: func() { h.watchers.Publish(push.Notification{}) },
	})
	h.mu.Lock()
	h.metaSub = sub
	h.mu.Unlock()
	return true
}

// MetaSubscription exposes the live subscription (nil when none was
// started) — the stats surface reports its state.
func (h *HNS) MetaSubscription() *bind.Subscriber {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.metaSub
}

// UnsubscribeMeta tears down the push subscription (if any), leaving TTL
// expiry as the only freshness mechanism.
func (h *HNS) UnsubscribeMeta() {
	h.mu.Lock()
	sub := h.metaSub
	h.metaSub = nil
	h.mu.Unlock()
	if sub == nil {
		return
	}
	sub.Close()
}
