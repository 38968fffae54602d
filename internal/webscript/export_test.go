package webscript

// Execute exposes the reference interpreter (interp_test.go) to the
// external webscript_test package.
var Execute = execute
