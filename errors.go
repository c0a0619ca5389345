package streach

import (
	"context"
	"errors"
	"fmt"

	"streach/internal/xerr"
)

// ErrorCode classifies a query failure. Codes are coarse on purpose:
// they are the contract the serving layer maps to HTTP statuses and the
// axis operators alert on, while the wrapped error keeps the detail.
type ErrorCode int

const (
	// CodeUnknown is the zero value: the error carries no
	// classification (foreign errors, raw context errors).
	CodeUnknown ErrorCode = iota
	// InvalidRequest: the request itself can never succeed — bad
	// probability or window, missing locations, no road near the query
	// point, an algorithm/kind pairing that does not exist.
	InvalidRequest
	// Timeout: the caller's context deadline expired.
	Timeout
	// Overloaded: the system shed the request under admission control.
	Overloaded
	// CorruptData: persisted or in-flight index data failed validation
	// (checksum mismatch, undecodable blob).
	CorruptData
	// Internal: an invariant was violated — a recovered panic or a bug.
	Internal
)

// String names the code for logs and error bodies.
func (c ErrorCode) String() string {
	switch c {
	case InvalidRequest:
		return "invalid_request"
	case Timeout:
		return "timeout"
	case Overloaded:
		return "overloaded"
	case CorruptData:
		return "corrupt_data"
	case Internal:
		return "internal"
	}
	return "unknown"
}

// Error is the typed failure Do returns: a code for
// dispatch, the operation that failed, and the underlying cause for
// detail. errors.Is/As see through it (Unwrap), so existing checks
// against context.DeadlineExceeded or sentinel errors keep working.
type Error struct {
	// Code classifies the failure.
	Code ErrorCode
	// Op is the failing operation ("reach", "multi", "do", ...).
	Op string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *Error) Error() string {
	if e.Err != nil {
		return e.Err.Error()
	}
	return fmt.Sprintf("streach: %s: %s", e.Op, e.Code)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// CodeOf extracts the ErrorCode from any error: a *streach.Error
// anywhere in the chain wins, then an internal classification mark,
// then the context sentinels. Unclassifiable errors report CodeUnknown.
func CodeOf(err error) ErrorCode {
	if err == nil {
		return CodeUnknown
	}
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	if c := codeOfKind(xerr.KindOf(err)); c != CodeUnknown {
		return c
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return Timeout
	}
	return CodeUnknown
}

// codeOfKind translates the internal packages' classification marks
// into public codes.
func codeOfKind(k xerr.Kind) ErrorCode {
	switch k {
	case xerr.KindInvalid:
		return InvalidRequest
	case xerr.KindTimeout:
		return Timeout
	case xerr.KindOverloaded:
		return Overloaded
	case xerr.KindCorrupt:
		return CorruptData
	case xerr.KindInternal:
		return Internal
	}
	return CodeUnknown
}

// wrapError classifies err and wraps it into a *Error at the API
// boundary. Raw context errors pass through unwrapped — Do documents
// that an abandoned query returns ctx.Err() itself, and a cancelled
// caller wants the sentinel, not a taxonomy entry. An error
// that is already a *Error passes through untouched.
func wrapError(op string, err error) error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return err
	}
	if err == context.Canceled || err == context.DeadlineExceeded {
		return err
	}
	code := codeOfKind(xerr.KindOf(err))
	if code == CodeUnknown {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			code = Timeout
		case errors.Is(err, context.Canceled):
			// A wrapped cancellation (not the bare sentinel) is still a
			// cancellation; leave it unclassified rather than inventing
			// a code.
			return err
		default:
			code = Internal
		}
	}
	return &Error{Code: code, Op: op, Err: err}
}

// errInvalid builds a typed InvalidRequest error directly (facade-level
// request validation).
func errInvalid(op, format string, args ...any) error {
	return &Error{Code: InvalidRequest, Op: op, Err: fmt.Errorf(format, args...)}
}
