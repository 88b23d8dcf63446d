module tapestry/bench

go 1.22

require tapestry v0.0.0

replace tapestry => ../
