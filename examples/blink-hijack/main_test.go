package main

import (
	"testing"

	"dui/internal/exampletest"
)

func TestHeadline(t *testing.T) {
	exampletest.Headline(t, main, "Blink reroutes the healthy prefix onto the attacker's path 0.38s later; 44722 packets hijacked")
}
