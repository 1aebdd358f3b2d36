package adawave

import (
	"adawave/internal/grid"
	"adawave/internal/persist"
	"adawave/internal/sched"
)

// The exported error taxonomy. Every error returned by the package's
// clustering, streaming and persistence entry points is classified under
// exactly one of these roots, matched with errors.Is — the message text is
// for humans and carries no contract. Serving layers map the taxonomy to
// wire codes (see cmd/adawave-serve and the adawave/client package):
//
//	errors.Is(err, adawave.ErrInvalidInput)      the caller's data or the
//	                                             effective configuration is at
//	                                             fault (ragged or
//	                                             zero-dimensional rows,
//	                                             non-finite coordinate,
//	                                             grid too small for the
//	                                             decomposition depth, transform
//	                                             densified past the growth cap,
//	                                             connectivity unsupported at
//	                                             this dimensionality) — fix the
//	                                             input, then retry
//	errors.Is(err, adawave.ErrNoPoints)          a read on an empty dataset or
//	                                             session — a sequencing error,
//	                                             not a crash
//	errors.Is(err, adawave.ErrConfigMismatch)    a checkpoint restored under a
//	                                             configuration other than the
//	                                             one it was written with
//	errors.Is(err, adawave.ErrEmbeddingMismatch) the embedding-specific
//	                                             refinement: checkpoint and
//	                                             engine disagree on the
//	                                             embedding spec (it also
//	                                             matches ErrConfigMismatch)
//	errors.Is(err, adawave.ErrCanceled)          the caller's context was
//	                                             canceled mid-pipeline; the
//	                                             engine unwound cleanly and the
//	                                             call can simply be retried
//	errors.Is(err, adawave.ErrDeadlineExceeded)  the caller's context deadline
//	                                             expired mid-pipeline; same
//	                                             clean-unwind guarantee
//	errors.Is(err, adawave.ErrResourceExhausted) the request was refused at
//	                                             admission by a tenant quota or
//	                                             the server's residency budget;
//	                                             nothing executed — resend the
//	                                             identical request after the
//	                                             retry-after hint
//
// ErrCanceled and ErrDeadlineExceeded wrap the originating context error, so
// errors.Is(err, context.Canceled) / errors.Is(err, context.DeadlineExceeded)
// hold as well.
var (
	// ErrInvalidInput tags failures the caller can fix by changing the data
	// or the configuration.
	ErrInvalidInput = grid.ErrInvalidInput
	// ErrNoPoints reports a clustering request over zero points.
	ErrNoPoints = grid.ErrNoPoints
	// ErrConfigMismatch reports a session checkpoint restored under a
	// differing configuration fingerprint.
	ErrConfigMismatch = persist.ErrConfigMismatch
	// ErrEmbeddingMismatch reports the embedding-specific fingerprint
	// disagreement: the checkpoint was taken under one embedding spec and
	// restored under another (or one side has no embedding at all). It wraps
	// ErrConfigMismatch, so code matching the broad root keeps working.
	ErrEmbeddingMismatch = persist.ErrEmbeddingMismatch
	// ErrCanceled tags computation abandoned because the context was
	// canceled.
	ErrCanceled = grid.ErrCanceled
	// ErrDeadlineExceeded tags computation abandoned because the context
	// deadline expired.
	ErrDeadlineExceeded = grid.ErrDeadlineExceeded
	// ErrResourceExhausted tags a request refused at admission because a
	// tenant quota (points, cells, concurrent folds, request rate) or the
	// server's residency budget is exhausted. The request did not execute;
	// it can be resent verbatim after the rejection's retry-after hint (on
	// the wire: HTTP 429 with a Retry-After header and a resource_exhausted
	// error envelope).
	ErrResourceExhausted = sched.ErrResourceExhausted
)
