package lint

import (
	"go/ast"
	"strings"
)

// TapCharge enforces the I/O-accounting boundary: every page transfer in
// the engine must be charged to the storage ledger (and, per query, to its
// storage.Tap), which is only possible if the transfer goes through
// internal/storage. The engine's "disk" is a simulated block device — the
// paper's experiments compare plans by counted block transfers — so any
// direct use of the os file API inside an engine package is I/O the
// ledger, the per-query taps, the pinned work counters and the fault plane
// all miss.
//
// Scope: every package in the module except the designated boundary and
// tooling packages — internal/storage (and its subpackages) is the I/O
// layer itself; internal/harness, internal/lint, cmd/* and examples/* are
// host-side tooling that legitimately reads and writes real files.
var TapCharge = &Analyzer{
	Name: "tapcharge",
	Doc: "engine packages must not perform direct os file I/O: page transfers " +
		"route through internal/storage so the IOStats ledger and per-query Taps are charged",
	Run: runTapCharge,
}

// osFileFuncs are the os package entry points that open, create or touch
// files directly.
var osFileFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "NewFile": true, "ReadDir": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Truncate": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true, "Link": true,
	"Symlink": true, "Pipe": true,
}

// osFileMethods are the *os.File methods that move bytes.
var osFileMethods = map[string]bool{
	"Read": true, "ReadAt": true, "ReadFrom": true,
	"Write": true, "WriteAt": true, "WriteString": true, "WriteTo": true,
	"Seek": true,
}

func runTapCharge(pass *Pass) error {
	if !tapChargeScoped(pass.Path()) {
		return nil
	}
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if obj := calleeObject(info, call); obj != nil && pkgPathOf(obj) == "os" && osFileFuncs[obj.Name()] {
				pass.Reportf(call.Pos(), "direct file I/O (os.%s) in an engine package: route page transfers through internal/storage so the IOStats ledger and per-query Taps are charged", obj.Name())
				return true
			}
			if recv, name, ok := methodCall(info, call, keys(osFileMethods)...); ok {
				if namedFrom(recv, "os", "File") {
					pass.Reportf(call.Pos(), "direct os.File.%s in an engine package: route page transfers through internal/storage so the IOStats ledger and per-query Taps are charged", name)
				}
			}
			return true
		})
	}
	return nil
}

// tapChargeScoped reports whether pkgPath is an engine package bound by
// the no-direct-I/O rule.
func tapChargeScoped(pkgPath string) bool {
	for _, exempt := range []string{
		"internal/storage", "internal/harness", "internal/lint",
	} {
		if pathWithin(pkgPath, exempt) || strings.Contains(pkgPath, "/"+exempt+"/") {
			return false
		}
	}
	if strings.Contains(pkgPath, "/cmd/") || strings.HasPrefix(pkgPath, "cmd/") {
		return false
	}
	if strings.Contains(pkgPath, "/examples/") || strings.HasPrefix(pkgPath, "examples/") {
		return false
	}
	return true
}

// keys returns the map's keys in unspecified order (only used to pass a
// name set to methodCall, which treats it as a set).
func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
