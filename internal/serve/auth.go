package serve

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// This file is the identity half of the daemon's front door. The paper's
// scenario is a shared pool of servers characterized on behalf of many
// workload owners; the serve layer maps that to tenants: every API key
// names the tenant it submits for, and the tenant ID follows the
// submission through structured logs, metric labels and the campaign
// view. Auth is opt-in — a Server built without keys answers anonymously,
// byte-identical to the pre-auth daemon — and the keyring is swappable at
// runtime (SetKeys) so campaignd can reload its keyfile on SIGHUP without
// dropping a single in-flight stream.
//
// Keys are bearer secrets, presented as "Authorization: Bearer <key>" or
// the "X-API-Key" header. The keyring never stores plaintext secrets
// beside the request path: lookup hashes the presented key and compares
// the digest against every entry with a constant-time comparison, without
// early exit, so response timing leaks neither key bytes nor which entry
// almost matched.

// Key is one keyring entry: a secret, the tenant it belongs to, and
// optional per-tenant overrides of the server-wide rate-limit defaults.
// This is also the keyfile's JSON element (see ParseKeyfile).
type Key struct {
	// Secret is the bearer token clients present. Required, and unique
	// within a keyring; several keys may name the same tenant (rotation:
	// old and new key valid at once).
	Secret string `json:"key"`
	// Tenant names the owner. Required; must satisfy ValidTenant, so it
	// is always safe as a metric label and a log attribute.
	Tenant string `json:"tenant"`
	// Disabled keeps the key in the file (audit trail, staged rotation)
	// while rejecting every request that presents it with 403.
	Disabled bool `json:"disabled,omitempty"`
	// RateLimit overrides Options.RateLimit for this tenant
	// (requests/second across submits and stream subscriptions).
	// Zero inherits the server default; negative means unlimited.
	RateLimit float64 `json:"rate_limit,omitempty"`
	// RateBurst overrides Options.RateBurst for this tenant. Zero
	// inherits.
	RateBurst int `json:"rate_burst,omitempty"`
	// MaxStreams overrides Options.MaxStreamsPerTenant: the concurrent
	// stream-subscriber cap. Zero inherits; negative means unlimited.
	MaxStreams int `json:"max_streams,omitempty"`
}

// ValidTenant reports whether a tenant name is acceptable: non-empty,
// bounded, and limited to characters that need no escaping in metric
// labels, log lines or HTTP headers — the same alphabet trace IDs use.
func ValidTenant(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// anonTenant labels unauthenticated traffic in metrics and rate-limit
// accounting. Internally the anonymous tenant is the empty string (so
// views and logs stay byte-identical when auth is off); the label exists
// because an empty metric label reads as a bug on a dashboard.
const anonTenant = "anonymous"

// tenantLabel maps the internal tenant name to its metric label.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return anonTenant
	}
	return tenant
}

// keyEntry is one compiled keyring slot: the secret's digest plus the
// declared Key (kept for tenant identity and limit overrides).
type keyEntry struct {
	digest [sha256.Size]byte
	key    Key
}

// Keyring is a compiled, immutable key set. Swap a new one in with
// Server.SetKeys; never mutate one that is installed.
type Keyring struct {
	entries []keyEntry
}

// NewKeyring compiles and validates a key set: every secret non-empty and
// unique, every tenant name valid. At least one key is required — an
// empty keyring would be an "auth enabled, everyone locked out" trap that
// a reload should never install by accident (disable auth by constructing
// the Server without keys instead).
func NewKeyring(keys []Key) (*Keyring, error) {
	if len(keys) == 0 {
		return nil, errors.New("serve: keyring needs at least one key")
	}
	kr := &Keyring{entries: make([]keyEntry, 0, len(keys))}
	seen := make(map[[sha256.Size]byte]bool, len(keys))
	for i, k := range keys {
		if k.Secret == "" {
			return nil, fmt.Errorf("serve: key %d has an empty secret", i)
		}
		if !ValidTenant(k.Tenant) {
			return nil, fmt.Errorf("serve: key %d has invalid tenant %q (1-64 chars of [A-Za-z0-9._-])", i, k.Tenant)
		}
		d := sha256.Sum256([]byte(k.Secret))
		if seen[d] {
			return nil, fmt.Errorf("serve: key %d duplicates an earlier secret", i)
		}
		seen[d] = true
		kr.entries = append(kr.entries, keyEntry{digest: d, key: k})
	}
	return kr, nil
}

// Tenants lists the distinct tenant names in declaration order.
func (kr *Keyring) Tenants() []string {
	seen := make(map[string]bool, len(kr.entries))
	var out []string
	for _, e := range kr.entries {
		if !seen[e.key.Tenant] {
			seen[e.key.Tenant] = true
			out = append(out, e.key.Tenant)
		}
	}
	return out
}

// authResult classifies a lookup.
type authResult int

const (
	authOK authResult = iota
	authUnknown
	authDisabled
)

// lookup resolves a presented secret. It hashes the secret and compares
// the digest against EVERY entry with subtle.ConstantTimeCompare — no
// early exit — so timing does not reveal whether (or where) a near-match
// sits in the ring.
func (kr *Keyring) lookup(secret string) (Key, authResult) {
	d := sha256.Sum256([]byte(secret))
	match := -1
	for i := range kr.entries {
		if subtle.ConstantTimeCompare(d[:], kr.entries[i].digest[:]) == 1 {
			match = i
		}
	}
	if match < 0 {
		return Key{}, authUnknown
	}
	if kr.entries[match].key.Disabled {
		return Key{}, authDisabled
	}
	return kr.entries[match].key, authOK
}

// ParseKeyfile reads the campaignd keyfile: a JSON array of Key objects,
//
//	[
//	  {"key": "s3cret", "tenant": "team-a"},
//	  {"key": "old-s3cret", "tenant": "team-a", "disabled": true},
//	  {"key": "b-key", "tenant": "team-b", "rate_limit": 2, "rate_burst": 4, "max_streams": 8}
//	]
//
// Validation happens in NewKeyring; this only decodes, rejecting trailing
// data so a truncated or concatenated file cannot half-load.
func ParseKeyfile(r io.Reader) ([]Key, error) {
	dec := json.NewDecoder(r)
	var keys []Key
	if err := dec.Decode(&keys); err != nil {
		return nil, fmt.Errorf("serve: keyfile: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("serve: keyfile: trailing data after key array")
	}
	return keys, nil
}

// ParseInlineKeys parses the campaignd -auth-keys flag form: comma-
// separated secret=tenant pairs (no per-tenant overrides — use the
// keyfile for those).
func ParseInlineKeys(s string) ([]Key, error) {
	var keys []Key
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		secret, tenant, ok := strings.Cut(pair, "=")
		if !ok || secret == "" || tenant == "" {
			return nil, fmt.Errorf("serve: bad inline key %q (want secret=tenant)", pair)
		}
		keys = append(keys, Key{Secret: secret, Tenant: tenant})
	}
	if len(keys) == 0 {
		return nil, errors.New("serve: no keys in inline key list")
	}
	return keys, nil
}

// SetKeys swaps the keyring: campaignd calls this on SIGHUP so key
// rotation and tenant-limit changes land without a restart. In-flight
// requests finish under the ring they authenticated against; new requests
// see the new ring immediately. nil disables auth (back to anonymous
// mode); a non-nil set must compile (see NewKeyring) or the old ring
// stays installed.
func (s *Server) SetKeys(keys []Key) error {
	if keys == nil {
		s.keys.Store(nil)
		s.logger.Info("auth disabled", "reason", "keyring cleared")
		return nil
	}
	kr, err := NewKeyring(keys)
	if err != nil {
		return err
	}
	s.keys.Store(kr)
	s.logger.Info("keyring installed", "keys", len(keys), "tenants", len(kr.Tenants()))
	return nil
}

// AuthEnabled reports whether a keyring is installed.
func (s *Server) AuthEnabled() bool { return s.keys.Load() != nil }

// tenantCtxKey carries the authenticated Key through the request context.
type tenantCtxKey struct{}

// keyOf returns the request's authenticated Key (zero value in anonymous
// mode: empty tenant, no overrides).
func keyOf(r *http.Request) Key {
	k, _ := r.Context().Value(tenantCtxKey{}).(Key)
	return k
}

// presentedKey extracts the bearer secret from a request: the
// "Authorization: Bearer <key>" header, or X-API-Key for clients that
// cannot set Authorization.
func presentedKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if secret, ok := cutPrefixFold(h, "Bearer "); ok {
			return strings.TrimSpace(secret)
		}
		return "" // a non-Bearer Authorization scheme is "no key", not a key
	}
	return r.Header.Get("X-API-Key")
}

// cutPrefixFold is strings.CutPrefix with an ASCII-case-insensitive
// scheme match ("bearer x" is as valid as "Bearer x").
func cutPrefixFold(s, prefix string) (string, bool) {
	if len(s) < len(prefix) || !strings.EqualFold(s[:len(prefix)], prefix) {
		return s, false
	}
	return s[len(prefix):], true
}

var (
	errAuthMissing  = errors.New("serve: missing API key (Authorization: Bearer or X-API-Key)")
	errAuthUnknown  = errors.New("serve: unknown API key")
	errAuthDisabled = errors.New("serve: API key disabled")
)

// authed gates a campaign-API handler behind the keyring. Anonymous mode
// (no keyring) passes straight through with the zero Key. Failures are
// counted per reason in serve_auth_failures_total and logged with the
// remote address — the operator's first question about a 401 spike is
// always "from where".
//
// The ops surface (/healthz, /metrics, /stats, /version) deliberately
// stays outside this gate: probes and scrapers predate any keyfile, and
// locking a fleet's monitoring out of a misconfigured daemon would turn
// every auth incident into an observability incident too.
func (s *Server) authed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		kr := s.keys.Load()
		if kr == nil {
			h(w, r)
			return
		}
		secret := presentedKey(r)
		if secret == "" {
			s.rejectAuth(w, r, "missing", http.StatusUnauthorized, errAuthMissing)
			return
		}
		key, res := kr.lookup(secret)
		switch res {
		case authUnknown:
			s.rejectAuth(w, r, "unknown", http.StatusForbidden, errAuthUnknown)
			return
		case authDisabled:
			s.rejectAuth(w, r, "disabled", http.StatusForbidden, errAuthDisabled)
			return
		}
		h(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, key)))
	}
}

// rejectAuth writes an auth failure and accounts for it.
func (s *Server) rejectAuth(w http.ResponseWriter, r *http.Request, reason string, status int, err error) {
	s.metrics.authFailures.With(reason).Inc()
	if status == http.StatusUnauthorized {
		w.Header().Set("WWW-Authenticate", `Bearer realm="campaignd"`)
	}
	s.logger.Warn("auth failed",
		"reason", reason, "path", r.URL.Path, "remote", r.RemoteAddr)
	s.writeError(w, r, status, err)
}
