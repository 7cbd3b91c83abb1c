package dir

import "sync"

type S struct{ mu sync.RWMutex }

// ok has a well-formed directive set.
//
//sit:locked mu
func (s *S) ok() {}

// typo misspells a directive.
//
//sit:lokced mu
func (s *S) typo() {} // want "unknown directive //sit:lokced on S.typo: no analyzer consumes it"

// missingArg declares a held lock without naming it.
//
//sit:locked
func (s *S) missingArg() {} // want "//sit:locked on S.missingArg has 0 arguments, want at least 1"

// extraArg gives arguments to a marker directive.
//
//sit:replay records
func replay() {} // want "//sit:replay on replay has 1 argument, want exactly 0"

// hotOK is a marker with no arguments, as required.
//
//sit:hotpath
func hotOK() {}

// staleCaptures carries a directive whose analyzer was retired.
//
//sit:captures opAddSchemas
func staleCaptures() {} // want "unknown directive //sit:captures on staleCaptures: no analyzer consumes it"

// staleBootstrap carries the other retired directive.
//
//sit:bootstrap opAddSchemas
func staleBootstrap() {} // want "unknown directive //sit:bootstrap on staleBootstrap: no analyzer consumes it"
