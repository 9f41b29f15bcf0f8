// Package acl implements the access-control-list abstraction of §3.5:
// entries whose subjects may be principals, compound principals
// (requiring concurrence), or group names maintained by group servers,
// each with a list of permitted operations and an associated restriction
// set.
//
// "Since the same access-control-list abstraction should be used on the
// authorization servers as on other servers, access-control-list entries
// can support an associated list of restrictions. On an authorization
// server, the restrictions field of a matching access-control-list entry
// can be copied to the restrictions field of the resulting proxy."
package acl

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"proxykit/internal/principal"
	"proxykit/internal/restrict"
)

// ErrDenied is returned when no entry authorizes a request.
var ErrDenied = errors.New("acl: no matching entry")

// AllOps is the wildcard operation.
const AllOps = "*"

// Subject identifies who an entry matches. All listed principals must be
// authenticated concurrently (compound principals, §3.5) and all listed
// groups must be asserted via verified group proxies. At least one of
// the two lists must be non-empty.
type Subject struct {
	// Principals that must all be present.
	Principals principal.Compound
	// Groups whose membership must all be verified.
	Groups []principal.Global
}

// String renders the subject for display.
func (s Subject) String() string {
	parts := make([]string, 0, len(s.Principals)+len(s.Groups))
	for _, p := range s.Principals {
		parts = append(parts, p.String())
	}
	for _, g := range s.Groups {
		parts = append(parts, g.String())
	}
	if len(parts) == 0 {
		return "<empty>"
	}
	return strings.Join(parts, "+")
}

// ParseSubject builds a subject from its textual principals (all
// required concurrently) and global group names.
func ParseSubject(principals, groups []string) (Subject, error) {
	var sub Subject
	ids := make([]principal.ID, 0, len(principals))
	for _, p := range principals {
		id, err := principal.Parse(p)
		if err != nil {
			return sub, err
		}
		ids = append(ids, id)
	}
	sub.Principals = principal.NewCompound(ids...)
	for _, g := range groups {
		gl, err := principal.ParseGlobal(g)
		if err != nil {
			return sub, err
		}
		sub.Groups = append(sub.Groups, gl)
	}
	return sub, nil
}

// matches reports whether the presented identities and verified groups
// satisfy the subject.
func (s Subject) matches(identities []principal.ID, groups map[principal.Global]bool) bool {
	if len(s.Principals) == 0 && len(s.Groups) == 0 {
		return false
	}
	if !s.Principals.SatisfiedBy(identities) {
		return false
	}
	for _, g := range s.Groups {
		if !groups[g] {
			return false
		}
	}
	return true
}

// Entry is one ACL line: a subject, the operations it permits, and
// restrictions associated with the grant.
type Entry struct {
	// Subject the entry matches.
	Subject Subject
	// Ops permitted; contains AllOps or is empty for all operations.
	Ops []string
	// Restrictions associated with the entry. On an end-server they are
	// evaluated against the request; on an authorization server they are
	// copied into issued proxies (§3.5).
	Restrictions restrict.Set
}

// permits reports whether the entry covers op.
func (e Entry) permits(op string) bool {
	if len(e.Ops) == 0 {
		return true
	}
	for _, o := range e.Ops {
		if o == AllOps || o == op {
			return true
		}
	}
	return false
}

// String renders the entry.
func (e Entry) String() string {
	ops := AllOps
	if len(e.Ops) > 0 {
		ops = strings.Join(e.Ops, ",")
	}
	if len(e.Restrictions) == 0 {
		return fmt.Sprintf("%s: %s", e.Subject, ops)
	}
	return fmt.Sprintf("%s: %s [%s]", e.Subject, ops, e.Restrictions)
}

// ACL is an ordered list of entries; the first match wins. The zero
// value is an empty (deny-all) list.
type ACL struct {
	mu      sync.RWMutex
	entries []Entry
}

// New returns an ACL with the given entries.
func New(entries ...Entry) *ACL {
	a := &ACL{}
	a.entries = append(a.entries, entries...)
	return a
}

// Add appends an entry.
func (a *ACL) Add(e Entry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.entries = append(a.entries, e)
}

// Entries returns a copy of the entries.
func (a *ACL) Entries() []Entry {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]Entry, len(a.entries))
	copy(out, a.entries)
	return out
}

// Query describes one authorization question.
type Query struct {
	// Op is the requested operation.
	Op string
	// Identities are the authenticated principals acting (for a proxy
	// presentation: the grantor; compound requirements may need more).
	Identities []principal.ID
	// Groups are memberships verified via group proxies.
	Groups map[principal.Global]bool
}

// Match returns the first entry permitting the query, or ErrDenied.
func (a *ACL) Match(q Query) (Entry, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, e := range a.entries {
		if e.permits(q.Op) && e.Subject.matches(q.Identities, q.Groups) {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("%w: op %q for %v", ErrDenied, q.Op, q.Identities)
}

// String renders the whole list.
func (a *ACL) String() string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	parts := make([]string, len(a.entries))
	for i, e := range a.entries {
		parts[i] = e.String()
	}
	return strings.Join(parts, "\n")
}

// PrincipalEntry is a convenience constructor for the common
// single-principal entry.
func PrincipalEntry(p principal.ID, ops ...string) Entry {
	return Entry{Subject: Subject{Principals: principal.NewCompound(p)}, Ops: ops}
}

// GroupEntry is a convenience constructor for a single-group entry.
func GroupEntry(g principal.Global, ops ...string) Entry {
	return Entry{Subject: Subject{Groups: []principal.Global{g}}, Ops: ops}
}
