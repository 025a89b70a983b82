# the edge p q of the K4 in two-part-host.el, as a locality anchor
2 1
p
q
p q
