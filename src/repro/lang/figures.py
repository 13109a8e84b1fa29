"""The paper's Section III figures as shippable script-language sources.

``FIGURE3_STAR_BROADCAST`` and ``FIGURE4_PIPELINE_BROADCAST`` are verbatim
transliterations (modulo ASCII ``->`` arrows and ``[]`` guard separators).

``FIGURE5_DATABASE`` is Figure 5 in the language subset.  The reader and
writer bodies follow the figure's structure exactly (the ``done`` arrays,
the ``who`` set, quorum check, release-on-denial).  The manager body — cut
off in the published figure — serves lock/release requests against
per-performance booleans and uses the clients' explicit ``'done'`` message
(instead of ``r.terminated`` guard re-evaluation) to know when to stop; the
full persistent-table manager lives in :mod:`repro.scripts.lockmanager`.
Protocol tags ride on message-constructor tuples, inspected with the
``TAG`` builtin.
"""

FIGURE3_STAR_BROADCAST = """
SCRIPT star_broadcast;
  INITIATION: DELAYED;
  TERMINATION: DELAYED;

  ROLE sender (data : item);
  BEGIN
    SEND data TO recipient[1];
    SEND data TO recipient[2];
    SEND data TO recipient[3];
    SEND data TO recipient[4];
    SEND data TO recipient[5]
  END sender;

  ROLE recipient [i:1..5] (VAR data : item);
  BEGIN
    RECEIVE data FROM sender
  END recipient;
END star_broadcast;
"""

FIGURE4_PIPELINE_BROADCAST = """
SCRIPT pipeline_broadcast;
  INITIATION: IMMEDIATE;
  TERMINATION: IMMEDIATE;

  ROLE sender (data : item);
  BEGIN
    SEND data TO recipient[1]
  END sender;

  ROLE recipient [i:1..5] (VAR data : item);
  BEGIN
    IF i = 1 THEN
      RECEIVE data FROM sender
    ELSE
      RECEIVE data FROM recipient[i - 1];
    IF i < 5 THEN
      SEND data TO recipient[i + 1]
  END recipient;
END pipeline_broadcast;
"""

FIGURE5_DATABASE = """
SCRIPT lock;
  CONST k = 3;
  INITIATION: DELAYED;
  TERMINATION: IMMEDIATE;
  CRITICAL: manager, reader;
  CRITICAL: manager, writer;

  ROLE manager [m:1..k] ();
  VAR
    reader_done : boolean;
    writer_done : boolean;
    read_locked : boolean;
    write_locked : boolean;
    msg : item;
  BEGIN
    reader_done := reader.terminated;
    writer_done := writer.terminated;
    read_locked := false;
    write_locked := false;
    DO
      NOT reader_done; RECEIVE msg FROM reader ->
        IF msg = 'done' THEN
          reader_done := true
        ELSE IF TAG(msg) = 'lock' THEN
          IF write_locked THEN
            SEND 'denied' TO reader
          ELSE BEGIN
            read_locked := true;
            SEND 'granted' TO reader
          END
        ELSE
          read_locked := false
    []
      NOT writer_done; RECEIVE msg FROM writer ->
        IF msg = 'done' THEN
          writer_done := true
        ELSE IF TAG(msg) = 'lock' THEN
          IF read_locked OR write_locked THEN
            SEND 'denied' TO writer
          ELSE BEGIN
            write_locked := true;
            SEND 'granted' TO writer
          END
        ELSE
          write_locked := false
    OD
  END manager;

  ROLE reader (id : process_id; data : object; request : (lock, release);
               VAR status : (granted, denied, released));
  VAR
    done : ARRAY [1..k] OF boolean;
    finished : ARRAY [1..k] OF boolean;
    who : SET OF [1..k];
    reply : item;
    i : integer;
  BEGIN
    IF request = release THEN
      BEGIN
        done := false;  { array assignment }
        DO [i = 1..k]
          NOT done[i]; SEND release(data, id) TO manager[i] ->
            done[i] := true
        OD;
        status := released
      END
    ELSE  { request = lock }
      BEGIN
        who := [ ];
        done := false;
        DO [i = 1..k]
          (who = [ ]) AND NOT done[i]; SEND lock(data, id) TO manager[i] ->
            RECEIVE reply FROM manager[i];
            done[i] := true;
            IF reply = 'granted' THEN
              who := who + [i]
        OD;
        IF who <> [ ] THEN
          status := granted
        ELSE
          status := denied
      END;
    finished := false;
    DO [i = 1..k]
      NOT finished[i]; SEND 'done' TO manager[i] -> finished[i] := true
    OD
  END reader;

  ROLE writer (id : process_id; data : object; request : (lock, release);
               VAR status : (granted, denied, released));
  VAR
    done : ARRAY [1..k] OF boolean;
    finished : ARRAY [1..k] OF boolean;
    who : SET OF [1..k];
    reply : item;
    i : integer;
  BEGIN
    IF request = release THEN
      BEGIN
        done := false;  { array assignment }
        DO [i = 1..k]
          NOT done[i]; SEND release(data, id) TO manager[i] ->
            done[i] := true
        OD;
        status := released
      END
    ELSE  { request = lock }
      BEGIN
        done := false;
        who := [ ];
        DO [i = 1..k]
          NOT done[i]; SEND lock(data, id) TO manager[i] ->
            RECEIVE reply FROM manager[i];
            done[i] := true;
            IF reply = 'granted' THEN
              who := who + [i]
        OD;
        IF SIZE(who) = k THEN
          status := granted
        ELSE
          BEGIN
            status := denied;
            DO [i = 1..k]
              i IN who; SEND release(data, id) TO manager[i] ->
                who := who - [i]
            OD
          END
      END;
    finished := false;
    DO [i = 1..k]
      NOT finished[i]; SEND 'done' TO manager[i] -> finished[i] := true
    OD
  END writer;
END lock;
"""

#: The one figure table: key -> (title, source).  The CLI's ``figures`` and
#: ``show`` and :func:`repro.analysis.figure_corpus` all read it.
FIGURES = {
    "fig3": ("Figure 3: synchronized star broadcast",
             FIGURE3_STAR_BROADCAST),
    "fig4": ("Figure 4: pipeline broadcast", FIGURE4_PIPELINE_BROADCAST),
    "fig5": ("Figure 5: database lock manager", FIGURE5_DATABASE),
}
