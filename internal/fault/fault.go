// Package fault is a deterministic fault-injection registry for chaos
// testing. Production code declares named injection sites (Register) and
// calls Inject at the site; with no plan armed that is a single atomic
// pointer load returning nil. A Plan — parsed from a compact textual
// grammar and armed process-wide — makes chosen sites fail, panic, or
// stall on exact call numbers, so crash/recovery paths can be exercised
// reproducibly from CI.
//
// Plan grammar: rules joined by ";", each
//
//	site:action@SELECTOR[=ARG]
//
// where SELECTOR is
//
//	N    fire on exactly the Nth call to the site (1-based)
//	N+   fire on every call from the Nth onward
//	~P   fire on each call with probability P (0 < P ≤ 1), decided
//	     deterministically from the plan seed, the site name, and the
//	     call number
//
// and action is one of
//
//	error[=NAME]  return an error; ENOSPC/EIO/EPIPE/EACCES map to the
//	              matching syscall errno (so errors.Is works), any other
//	              NAME becomes an opaque error with that text
//	panic         panic with a message naming the site and call number
//	delay=DUR     sleep for DUR (time.ParseDuration), then keep
//	              evaluating later rules
//
// A clause "seed=N" sets the plan seed used by ~P selectors. Example:
//
//	store.write:error@3=ENOSPC; fleet.fetch.body:delay@1+=50ms
//
// Call counters are per site and reset by Arm, so a given plan fires at
// the same calls on every run of a deterministic workload.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// site tracks the number of Inject calls observed while a plan is armed.
type site struct {
	calls atomic.Uint64
}

// sites maps site name -> *site. Entries are created by Register (from
// the instrumented packages' init functions) and never removed.
var sites sync.Map

// Register declares a named injection site. It is idempotent and safe
// for concurrent use; instrumented packages call it from init so that
// Parse can validate plans against the full site list.
func Register(name string) {
	sites.LoadOrStore(name, &site{})
}

// Sites returns the sorted names of all registered injection sites.
func Sites() []string {
	var names []string
	sites.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}

// Action is what a matched rule does at the injection site.
type Action int

const (
	// ActError makes Inject return the rule's error.
	ActError Action = iota
	// ActPanic panics at the site.
	ActPanic
	// ActDelay sleeps, then lets evaluation continue.
	ActDelay
)

// Rule is one parsed clause of a fault plan.
type Rule struct {
	Site   string
	Action Action

	// Selector: exactly one of the following is active.
	N     uint64  // fire at call N (Every false) or calls >= N (Every true)
	Every bool    // "@N+"
	Prob  float64 // "@~P"; active when > 0

	Err   error         // ActError payload
	Delay time.Duration // ActDelay payload

	src string // canonical clause text, for String
}

// Plan is a parsed, armable fault plan.
type Plan struct {
	Seed  uint64
	Rules []Rule

	bySite map[string][]*Rule
	src    string
}

// String returns the canonical textual form of the plan.
func (p *Plan) String() string { return p.src }

// errnos maps well-known error names to real errnos so that injected
// failures satisfy errors.Is(err, syscall.ENOSPC) etc., exactly like
// the real thing would.
var errnos = map[string]error{
	"ENOSPC": syscall.ENOSPC,
	"EIO":    syscall.EIO,
	"EPIPE":  syscall.EPIPE,
	"EACCES": syscall.EACCES,
}

// Parse compiles a plan string. Site names are validated against the
// registered sites; an unknown site is an error (listing the known
// sites) so typos in CI configs fail loudly at boot instead of silently
// never firing.
func Parse(s string) (*Plan, error) {
	p := &Plan{bySite: make(map[string][]*Rule)}
	var canon []string
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault plan: bad seed %q: %v", v, err)
			}
			p.Seed = seed
			canon = append(canon, "seed="+strconv.FormatUint(seed, 10))
			continue
		}
		r, err := parseRule(clause)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, r)
		canon = append(canon, r.src)
	}
	if len(p.Rules) == 0 {
		return nil, errors.New("fault plan: no rules")
	}
	for i := range p.Rules {
		r := &p.Rules[i]
		p.bySite[r.Site] = append(p.bySite[r.Site], r)
	}
	p.src = strings.Join(canon, "; ")
	return p, nil
}

func parseRule(clause string) (Rule, error) {
	var r Rule
	head, arg, hasArg := strings.Cut(clause, "=")
	head = strings.TrimSpace(head)
	arg = strings.TrimSpace(arg)
	siteAction, sel, ok := strings.Cut(head, "@")
	if !ok {
		return r, fmt.Errorf("fault plan: clause %q: missing @selector", clause)
	}
	name, action, ok := strings.Cut(strings.TrimSpace(siteAction), ":")
	if !ok {
		return r, fmt.Errorf("fault plan: clause %q: want site:action@selector", clause)
	}
	r.Site = strings.TrimSpace(name)
	if _, known := sites.Load(r.Site); !known {
		return r, fmt.Errorf("fault plan: unknown site %q (known: %s)", r.Site, strings.Join(Sites(), ", "))
	}

	sel = strings.TrimSpace(sel)
	switch {
	case strings.HasPrefix(sel, "~"):
		prob, err := strconv.ParseFloat(sel[1:], 64)
		if err != nil || prob <= 0 || prob > 1 {
			return r, fmt.Errorf("fault plan: clause %q: bad probability %q", clause, sel)
		}
		r.Prob = prob
	case strings.HasSuffix(sel, "+"):
		n, err := strconv.ParseUint(strings.TrimSuffix(sel, "+"), 10, 64)
		if err != nil || n == 0 {
			return r, fmt.Errorf("fault plan: clause %q: bad call number %q", clause, sel)
		}
		r.N, r.Every = n, true
	default:
		n, err := strconv.ParseUint(sel, 10, 64)
		if err != nil || n == 0 {
			return r, fmt.Errorf("fault plan: clause %q: bad call number %q", clause, sel)
		}
		r.N = n
	}

	switch act := strings.TrimSpace(action); act {
	case "error":
		errName := arg
		if errName == "" {
			errName = "injected error"
		}
		if errno, ok := errnos[errName]; ok {
			r.Err = errno
		} else {
			r.Err = errors.New(errName)
		}
		r.Action = ActError
		if hasArg {
			r.src = fmt.Sprintf("%s:error@%s=%s", r.Site, sel, arg)
		} else {
			r.src = fmt.Sprintf("%s:error@%s", r.Site, sel)
		}
	case "panic":
		if hasArg {
			return r, fmt.Errorf("fault plan: clause %q: panic takes no argument", clause)
		}
		r.Action = ActPanic
		r.src = fmt.Sprintf("%s:panic@%s", r.Site, sel)
	case "delay":
		if !hasArg {
			return r, fmt.Errorf("fault plan: clause %q: delay needs =duration", clause)
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return r, fmt.Errorf("fault plan: clause %q: bad duration %q", clause, arg)
		}
		r.Action = ActDelay
		r.Delay = d
		r.src = fmt.Sprintf("%s:delay@%s=%s", r.Site, sel, d)
	default:
		return r, fmt.Errorf("fault plan: clause %q: unknown action %q", clause, act)
	}
	return r, nil
}

// armed is the process-wide active plan; nil when disarmed. Inject's
// fast path is this single load.
var armed atomic.Pointer[Plan]

// Arm activates the plan process-wide, resetting all site call
// counters so the plan is deterministic from this moment. Arm(nil)
// disarms.
func Arm(p *Plan) {
	sites.Range(func(_, v any) bool {
		v.(*site).calls.Store(0)
		return true
	})
	armed.Store(p)
}

// Disarm deactivates any armed plan.
func Disarm() { armed.Store(nil) }

// Inject evaluates the armed plan at the named site. With no plan armed
// it returns nil after one atomic load. With a plan armed that has no
// rules for this site, the call is not even counted, so unrelated sites
// never perturb a plan's call arithmetic.
func Inject(name string) error {
	p := armed.Load()
	if p == nil {
		return nil
	}
	rules := p.bySite[name]
	if len(rules) == 0 {
		return nil
	}
	v, _ := sites.LoadOrStore(name, &site{})
	n := v.(*site).calls.Add(1)
	for _, r := range rules {
		if !r.matches(p.Seed, name, n) {
			continue
		}
		switch r.Action {
		case ActDelay:
			time.Sleep(r.Delay)
		case ActPanic:
			panic(fmt.Sprintf("fault: injected panic at %s call %d", name, n))
		case ActError:
			return fmt.Errorf("fault: %s call %d: %w", name, n, r.Err)
		}
	}
	return nil
}

func (r *Rule) matches(seed uint64, name string, n uint64) bool {
	switch {
	case r.Prob > 0:
		return unitFloat(seed^fnv64(name), n) < r.Prob
	case r.Every:
		return n >= r.N
	default:
		return n == r.N
	}
}

// unitFloat derives a uniform [0,1) value from (stream, n) via
// splitmix64 — deterministic across runs and independent per site.
func unitFloat(stream, n uint64) float64 {
	x := splitmix64(stream + n*0x9e3779b97f4a7c15)
	return float64(x>>11) / (1 << 53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
