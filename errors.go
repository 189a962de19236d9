package parclass

import (
	"errors"

	"repro/internal/core"
)

// Sentinel errors returned (wrapped, test with errors.Is) by Train, Predict,
// PredictBatch and PredictValues.
var (
	// ErrUnknownAttribute marks a prediction row that is missing a schema
	// attribute, or a positional row of the wrong width.
	ErrUnknownAttribute = errors.New("parclass: unknown attribute")
	// ErrUnknownValue marks an attribute value that cannot be decoded: an
	// unparseable number or NaN for a continuous attribute, or a category
	// name the training schema never saw.
	ErrUnknownValue = errors.New("parclass: unknown value")
	// ErrBadOption marks an Options combination rejected by Validate.
	ErrBadOption = errors.New("parclass: bad option")
	// ErrNotCompiled marks a prediction path that needs the compiled
	// flat-tree predictor when compilation failed.
	ErrNotCompiled = errors.New("parclass: model not compiled")
	// ErrWorkerPanic marks a Train/Build failure caused by a panicking
	// build worker; the build tears down cleanly and the panic value plus
	// its stack are in the wrapped message.
	ErrWorkerPanic = core.ErrWorkerPanic
)
