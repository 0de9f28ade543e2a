"""WAM instruction set.

Instructions are plain tuples ``(opcode, operand...)`` — the cheapest
dispatchable representation in Python.  Operands use these conventions:

* registers: ``('x', n)`` temporary / argument registers,
  ``('y', n)`` permanent (environment) slots;
* constants: ``('atom', dict_id)``, ``('int', v)``, ``('flt', v)`` —
  atoms are referenced by their *internal dictionary identifier*, never
  by name (paper §3.3.1);
* functors: the internal dictionary identifier of (name, arity);
* code labels: symbolic strings before assembly, integer offsets within
  the procedure's code block after assembly.

The set follows Warren's original machine [22] plus the indexing
instructions, cut support, an ``escape`` instruction for built-ins and
``arith``: ``T is H*60+M`` is one instruction over expression trees of
registers, numbers and function names (:mod:`repro.wam.arith`).
"""

# --- get (head argument unification) ---------------------------------------
GET_VARIABLE = "get_variable"          # (reg, ai)
GET_VALUE = "get_value"                # (reg, ai)
GET_CONSTANT = "get_constant"          # (const, ai)
GET_NIL = "get_nil"                    # (ai,)
GET_STRUCTURE = "get_structure"        # (fid, ai)
GET_LIST = "get_list"                  # (ai,)

# --- put (goal argument construction) ---------------------------------------
PUT_VARIABLE = "put_variable"          # (reg, ai)
PUT_VALUE = "put_value"                # (reg, ai)
PUT_UNSAFE_VALUE = "put_unsafe_value"  # (yreg, ai)
PUT_CONSTANT = "put_constant"          # (const, ai)
PUT_NIL = "put_nil"                    # (ai,)
PUT_STRUCTURE = "put_structure"        # (fid, ai)
PUT_LIST = "put_list"                  # (ai,)

# --- unify (structure arguments, read/write mode) ----------------------------
UNIFY_VARIABLE = "unify_variable"      # (reg,)
UNIFY_VALUE = "unify_value"            # (reg,)
UNIFY_LOCAL_VALUE = "unify_local_value"  # (reg,)
UNIFY_CONSTANT = "unify_constant"      # (const,)
UNIFY_NIL = "unify_nil"                # ()
UNIFY_VOID = "unify_void"              # (count,)

# --- control ----------------------------------------------------------------
ALLOCATE = "allocate"                  # (nperm,)
DEALLOCATE = "deallocate"              # ()
CALL = "call"                          # (pid, arity)
EXECUTE = "execute"                    # (pid, arity)
PROCEED = "proceed"                    # ()

# --- choice points ------------------------------------------------------------
TRY_ME_ELSE = "try_me_else"            # (label,)
RETRY_ME_ELSE = "retry_me_else"        # (label,)
TRUST_ME = "trust_me"                  # ()
TRY = "try"                            # (label,)
RETRY = "retry"                        # (label,)
TRUST = "trust"                        # (label,)

# --- indexing (§3.2.2) --------------------------------------------------------
SWITCH_ON_TERM = "switch_on_term"      # (lvar, lcon, llis, lstr)
SWITCH_ON_CONSTANT = "switch_on_constant"  # (table: {const_key: label}, default)
SWITCH_ON_STRUCTURE = "switch_on_structure"  # (table: {fid: label}, default)

# --- cut ----------------------------------------------------------------------
NECK_CUT = "neck_cut"                  # ()
GET_LEVEL = "get_level"                # (yreg,)
CUT = "cut"                            # (yreg,)

# --- built-ins & misc -----------------------------------------------------------
ESCAPE = "escape"                      # (builtin_name, arity)
ARITH = "arith"                        # (goal, lhs, rhs): is/2 or a comparison
FAIL_OP = "fail_op"                    # () unconditional failure
NOOP = "noop"                          # ()
HALT_SUCCESS = "halt_success"          # () sentinel: top-level goal solved
LABEL = "label"                        # (name,) pseudo-instruction, assembled away
