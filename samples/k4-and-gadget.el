# K4 on p q s t, plus the K4 gadget at r = 3 on a b c d: each edge of
# K4 replaced by three paths of length 2 (22 vertices, 36 edges)
26 42
a
a~b.0.0.1
a~b.0.1.1
a~b.0.2.1
a~c.1.0.1
a~c.1.1.1
a~c.1.2.1
a~d.2.0.1
a~d.2.1.1
a~d.2.2.1
b
b~c.3.0.1
b~c.3.1.1
b~c.3.2.1
b~d.4.0.1
b~d.4.1.1
b~d.4.2.1
c
c~d.5.0.1
c~d.5.1.1
c~d.5.2.1
d
p
q
s
t
a a~b.0.0.1
a a~b.0.1.1
a a~b.0.2.1
a a~c.1.0.1
a a~c.1.1.1
a a~c.1.2.1
a a~d.2.0.1
a a~d.2.1.1
a a~d.2.2.1
a~b.0.0.1 b
a~b.0.1.1 b
a~b.0.2.1 b
a~c.1.0.1 c
a~c.1.1.1 c
a~c.1.2.1 c
a~d.2.0.1 d
a~d.2.1.1 d
a~d.2.2.1 d
b b~c.3.0.1
b b~c.3.1.1
b b~c.3.2.1
b b~d.4.0.1
b b~d.4.1.1
b b~d.4.2.1
b~c.3.0.1 c
b~c.3.1.1 c
b~c.3.2.1 c
b~d.4.0.1 d
b~d.4.1.1 d
b~d.4.2.1 d
c c~d.5.0.1
c c~d.5.1.1
c c~d.5.2.1
c~d.5.0.1 d
c~d.5.1.1 d
c~d.5.2.1 d
p q
p s
p t
q s
q t
s t
