package grid

import "errors"

// ErrInvalidInput tags failures caused by the caller's points or effective
// configuration — ragged or zero-dimensional rows, non-finite coordinates,
// a grid too small for the requested decomposition depth, a transform
// densified past the growth cap, a connectivity that does not support the
// data's dimensionality. Serving
// layers use errors.Is(err, ErrInvalidInput) to separate these (the client
// can fix them by changing the data or the session configuration) from
// internal faults. ErrNoPoints is its own sentinel and is not tagged.
var ErrInvalidInput = errors.New("grid: invalid input")

// invalidInputError wraps an error so errors.Is(err, ErrInvalidInput) holds
// without altering its message or its own wrap chain.
type invalidInputError struct{ err error }

func (e invalidInputError) Error() string        { return e.err.Error() }
func (e invalidInputError) Unwrap() error        { return e.err }
func (e invalidInputError) Is(target error) bool { return target == ErrInvalidInput }

// invalidInput tags err as input-shaped; nil stays nil.
func invalidInput(err error) error {
	if err == nil {
		return nil
	}
	return invalidInputError{err}
}

// InvalidInput is the exported form of the input-shaped tag, for higher
// layers (e.g. core's session mutation validation) whose failures are the
// caller's to fix and must classify as ErrInvalidInput, not as internal
// faults.
func InvalidInput(err error) error { return invalidInput(err) }
