package core

import (
	"context"
)

// Cache preloading. "In those cases where the HNS used by the client is a
// local copy, the cost of the many remote lookups required on the initial
// reference to various pieces of meta-naming information might exceed the
// cost of preloading the relatively small amount of information (currently
// about 2KB) required to guarantee HNS cache hits." The BIND zone-transfer
// mechanism is used to fetch the whole meta zone in one operation.

// PreloadReport summarises one preload.
type PreloadReport struct {
	// Records is the number of meta records transferred.
	Records int
	// Bytes is the total payload size (the paper's "about 2KB").
	Bytes int
	// Serial is the meta-zone serial at transfer time.
	Serial uint32
}

// Preload fetches the entire meta zone by zone transfer and installs it in
// the meta-cache, guaranteeing HNS cache hits until the records' TTLs
// expire.
func (h *HNS) Preload(ctx context.Context) (PreloadReport, error) {
	serial, rrs, err := h.meta.Transfer(ctx, h.metaZone)
	if err != nil {
		return PreloadReport{}, err
	}
	h.resolver.Preload(rrs)
	rep := PreloadReport{Records: len(rrs), Serial: serial}
	for _, rr := range rrs {
		rep.Bytes += len(rr.Name) + len(rr.Data)
	}
	return rep, nil
}
