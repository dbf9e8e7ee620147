module miniamr/bench

go 1.22

require miniamr v0.0.0

replace miniamr => ../
