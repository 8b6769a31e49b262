package main

import (
	"testing"

	"dui/internal/exampletest"
)

func TestHeadline(t *testing.T) {
	exampletest.Headline(t, main, "15% bots (5x report volume): honest QoE 2.51, 100% pushed to the bad CDN")
}
