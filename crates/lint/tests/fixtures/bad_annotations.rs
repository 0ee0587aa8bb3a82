//! Fixture: malformed allow annotations. Line numbers are asserted — do
//! not reflow.

fn missing_reason(v: Option<u32>) -> u32 {
    v.unwrap() // line 5: NOT suppressed // ig-lint: allow(panic)
}

fn unknown_rule(v: Option<u32>) -> u32 {
    v.unwrap() // line 9: NOT suppressed // ig-lint: allow(no-such-rule) -- reason present
}

fn empty_list(v: Option<u32>) -> u32 {
    v.unwrap() // line 13: NOT suppressed // ig-lint: allow() -- reason present
}

fn retired_rule(v: Option<u32>) -> u32 {
    v.unwrap() // line 17: NOT suppressed // ig-lint: allow(error-flow) -- retired rule
}
