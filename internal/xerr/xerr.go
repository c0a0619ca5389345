// Package xerr carries error classification across the internal
// packages. The public taxonomy lives in the root streach package
// (streach.Error with its ErrorCode enum), but internal packages cannot
// import the root package, so they mark errors with a Kind here and the
// facade translates Kind to ErrorCode at the API boundary.
package xerr

import (
	"errors"
	"fmt"
)

// Kind classifies an error for the facade's taxonomy. The zero value
// KindUnknown means "not classified" — the facade falls back to its own
// heuristics (context errors, validation strings).
type Kind int

const (
	KindUnknown Kind = iota
	// KindInvalid: the request itself is malformed (bad probability,
	// empty window, no road segment near the query point, ...).
	KindInvalid
	// KindTimeout: a deadline expired before the work finished.
	KindTimeout
	// KindOverloaded: the system shed the request (admission control).
	KindOverloaded
	// KindCorrupt: persisted state failed validation (checksum mismatch,
	// truncated or malformed blob).
	KindCorrupt
	// KindInternal: an invariant was violated (recovered panic, bug).
	KindInternal
)

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case KindInvalid:
		return "invalid"
	case KindTimeout:
		return "timeout"
	case KindOverloaded:
		return "overloaded"
	case KindCorrupt:
		return "corrupt"
	case KindInternal:
		return "internal"
	}
	return "unknown"
}

// kindError attaches a Kind to an error without changing its message.
type kindError struct {
	kind Kind
	err  error
}

func (e *kindError) Error() string { return e.err.Error() }
func (e *kindError) Unwrap() error { return e.err }

// Mark wraps err with kind. A nil err returns nil. Re-marking an
// already-kinded error overrides the inner kind (the outermost mark
// wins in KindOf, since errors.As finds it first).
func Mark(kind Kind, err error) error {
	if err == nil {
		return nil
	}
	return &kindError{kind: kind, err: err}
}

// Markf is Mark over a formatted error; %w verbs work as with
// fmt.Errorf.
func Markf(kind Kind, format string, args ...any) error {
	return &kindError{kind: kind, err: fmt.Errorf(format, args...)}
}

// KindOf reports the Kind attached to err, or KindUnknown if none. The
// outermost mark in the chain wins.
func KindOf(err error) Kind {
	var ke *kindError
	if errors.As(err, &ke) {
		return ke.kind
	}
	return KindUnknown
}
