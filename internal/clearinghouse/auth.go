package clearinghouse

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"sync"

	"hns/internal/simtime"
)

// The Clearinghouse authenticates every access — the paper's footnote 5
// attributes most of the 156 ms lookup cost to "each access is
// authenticated, and virtually all data is retrieved from disk". We model
// the simple-credentials flavour: the client presents its principal name
// and a proof derived from a shared secret; the server verifies the proof
// against its principal table and charges the authentication cost.

// Credentials identify a calling principal.
type Credentials struct {
	// Principal is the caller's name ("user:domain:org" by convention).
	Principal string
	// Proof is the hashed shared secret, as produced by Proof.
	Proof []byte
}

// Proof derives the wire proof for a principal/secret pair.
func Proof(principal, secret string) []byte {
	sum := sha256.Sum256([]byte(principal + "\x00" + secret))
	return sum[:]
}

// NewCredentials builds credentials from a principal and its secret.
func NewCredentials(principal, secret string) Credentials {
	return Credentials{Principal: principal, Proof: Proof(principal, secret)}
}

// ErrAuthFailed reports a rejected access.
var ErrAuthFailed = errors.New("clearinghouse: authentication failed")

// Authenticator is a server's principal table.
type Authenticator struct {
	mu         sync.RWMutex
	principals map[string][]byte // principal -> expected proof
	open       bool
}

// NewAuthenticator creates an empty principal table. If open is true every
// access is admitted (still charging authentication cost) — used for
// test/demo deployments, mirroring sites that ran the Clearinghouse with a
// wildcard principal.
func NewAuthenticator(open bool) *Authenticator {
	return &Authenticator{
		principals: make(map[string][]byte),
		open:       open,
	}
}

// AddPrincipal registers (or replaces) a principal's secret.
func (a *Authenticator) AddPrincipal(principal, secret string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.principals[principal] = Proof(principal, secret)
}

// Verify checks credentials, charging the per-access authentication cost
// regardless of outcome (the handshake happens either way).
func (a *Authenticator) Verify(ctx context.Context, c Credentials) error {
	simtime.Charge(ctx, simtime.CHAuth)
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.open {
		return nil
	}
	want, ok := a.principals[c.Principal]
	if !ok {
		return ErrAuthFailed
	}
	if subtle.ConstantTimeCompare(want, c.Proof) != 1 {
		return ErrAuthFailed
	}
	return nil
}

// String renders a proof for diagnostics (never the secret).
func (c Credentials) String() string {
	return c.Principal + "/" + hex.EncodeToString(c.Proof)[:8]
}
