package main

import (
	"testing"

	"dui/internal/exampletest"
)

func TestHeadline(t *testing.T) {
	exampletest.Headline(t, main, "hijack with guard:       rerouted=false, vetoes=1, hijacked packets=0")
}
