// The benchmark is a module of its own so the root module's
// `go build ./... && go test ./...` never compiles or runs it. The
// shared path prefix is what lets it import the parent's internal
// packages; the replace points at the checkout it sits in.
module github.com/holisticim/holisticim/benchmark

go 1.22

require github.com/holisticim/holisticim v0.0.0

replace github.com/holisticim/holisticim => ../
